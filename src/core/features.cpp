#include "core/features.hpp"

#include <algorithm>
#include <cstdint>

#include "common/simd.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phishinghook::core {

namespace {

/// byte -> bytes to skip after the opcode (declared PUSH immediate width).
/// Pure function of the Shanghai table; shared by every fast-path scan.
const std::array<std::uint8_t, 256>& immediate_width_lut() {
  static const std::array<std::uint8_t, 256> lut = [] {
    std::array<std::uint8_t, 256> out{};
    const evm::OpcodeTable& table = evm::OpcodeTable::shanghai();
    for (std::size_t b = 0; b < 256; ++b) {
      const evm::OpcodeInfo* info = table.find(static_cast<std::uint8_t>(b));
      out[b] = info != nullptr ? info->immediate_bytes : 0;
    }
    return out;
  }();
  return lut;
}

/// The declared PUSH immediate width as pure arithmetic: PUSH1..PUSH32
/// are the contiguous bytes 0x60..0x7f skipping 1..32 operand bytes;
/// everything else (including 0x5f PUSH0) skips none. Keeping this out
/// of a table removes the dependent LUT load from the scan's
/// `pc += 1 + skip` critical path.
inline std::size_t arithmetic_push_skip(std::uint8_t byte) {
  return static_cast<std::uint8_t>(byte - 0x60) < 32
             ? static_cast<std::size_t>(byte) - 0x5f
             : 0;
}

/// Verified once at first use: the arithmetic skip must agree with the
/// Shanghai opcode table for every byte. If a future table revision adds
/// immediates outside the PUSH range, the scan falls back to the LUT.
bool arithmetic_skip_matches_table() {
  static const bool matches = [] {
    const std::array<std::uint8_t, 256>& lut = immediate_width_lut();
    for (std::size_t b = 0; b < 256; ++b) {
      if (arithmetic_push_skip(static_cast<std::uint8_t>(b)) != lut[b]) {
        return false;
      }
    }
    return true;
  }();
  return matches;
}

/// Fast-path volume counters + the transform_all latency histogram.
struct FeatureInstruments {
  obs::Counter rows = obs::MetricsRegistry::global().counter(
      "features_rows_transformed_total");
  obs::Counter bytes = obs::MetricsRegistry::global().counter(
      "features_bytes_scanned_total");
  obs::LatencyHistogram& transform_all_us =
      obs::MetricsRegistry::global().histogram("features_transform_all_us");
};

FeatureInstruments& feature_instruments() {
  static FeatureInstruments instruments;
  return instruments;
}

}  // namespace

// --- HistogramVocabulary -----------------------------------------------------

void HistogramVocabulary::fit(const std::vector<const Bytecode*>& corpus) {
  obs::ScopedSpan span("features.vocab_fit");
  mnemonics_.clear();
  index_.clear();
  byte_column_.fill(-1);
  // Opcode byte <-> mnemonic is a bijection (defined opcodes via the table,
  // undefined bytes via UNKNOWN_0xXX), so first-seen-byte order equals the
  // legacy first-seen-mnemonic order and the dedup set is a 256-entry
  // array instead of a string map.
  const evm::Disassembler disassembler;
  for (const Bytecode* code : corpus) {
    disassembler.for_each(*code, [&](const evm::InstructionView& view) {
      std::int32_t& column = byte_column_[view.opcode];
      if (column < 0) {
        column = static_cast<std::int32_t>(mnemonics_.size());
        mnemonics_.push_back(std::string(view.mnemonic()));
      }
    });
  }
  for (std::size_t i = 0; i < mnemonics_.size(); ++i) {
    index_.emplace(mnemonics_[i], i);
  }
}

HistogramVocabulary HistogramVocabulary::from_mnemonics(
    std::vector<std::string> mnemonics) {
  HistogramVocabulary vocabulary;
  vocabulary.mnemonics_ = std::move(mnemonics);
  for (std::size_t i = 0; i < vocabulary.mnemonics_.size(); ++i) {
    vocabulary.index_.emplace(vocabulary.mnemonics_[i], i);
  }
  vocabulary.rebuild_lut();
  return vocabulary;
}

void HistogramVocabulary::rebuild_lut() {
  byte_column_.fill(-1);
  const evm::OpcodeTable& table = evm::OpcodeTable::shanghai();
  for (std::size_t b = 0; b < 256; ++b) {
    const evm::OpcodeInfo* info = table.find(static_cast<std::uint8_t>(b));
    const std::string_view name = info != nullptr
                                      ? info->mnemonic
                                      : evm::unknown_mnemonic(
                                            static_cast<std::uint8_t>(b));
    const auto it = index_.find(std::string(name));
    if (it != index_.end()) {
      byte_column_[b] = static_cast<std::int32_t>(it->second);
    }
  }
}

void HistogramVocabulary::transform_into(const Bytecode& code,
                                         std::span<double> out) const {
  if (out.size() != mnemonics_.size()) {
    throw InvalidArgument("HistogramVocabulary::transform_into buffer size " +
                          std::to_string(out.size()) + " != vocabulary size " +
                          std::to_string(mnemonics_.size()));
  }
  std::fill(out.begin(), out.end(), 0.0);
  const std::vector<std::uint8_t>& bytes = code.bytes();
  const std::uint8_t* data = bytes.data();
  const std::size_t n = bytes.size();
  const bool arithmetic_skip = arithmetic_skip_matches_table();
  if (n >= kBankedHistogramBytes && arithmetic_skip) {
    // Large codes: integer opcode histogram in four banks — consecutive
    // occurrences of the same opcode land on different counters, so the
    // increment never stalls on a store-to-load forward of the previous
    // iteration. The pc chase itself is the serial dependency; the
    // arithmetic PUSH skip keeps it a one-add chain instead of a load.
    std::uint32_t banks[4][256] = {};
    std::size_t pc = 0;
    std::size_t lane = 0;
    while (pc < n) {
      const std::uint8_t byte = data[pc];
      ++banks[lane & 3][byte];
      ++lane;
      pc += 1 + arithmetic_push_skip(byte);
    }
    // Bank merge is a straight vectorizable sum; the final scatter through
    // byte_column_ converts each exact integer count to its double (the
    // legacy path summed 1.0 per instruction — identical values).
    std::uint32_t counts[256];
    PHISHINGHOOK_SIMD
    for (std::size_t b = 0; b < 256; ++b) {
      counts[b] = banks[0][b] + banks[1][b] + banks[2][b] + banks[3][b];
    }
    for (std::size_t b = 0; b < 256; ++b) {
      const std::int32_t column = byte_column_[b];
      if (counts[b] != 0 && column >= 0) {
        out[static_cast<std::size_t>(column)] +=
            static_cast<double>(counts[b]);
      }
    }
  } else if (arithmetic_skip) {
    // Small codes: the ~1.5 KB of bank zero/merge would outweigh the walk
    // itself, so accumulate straight into the output doubles (sums of 1.0
    // — the same values the banked path produces).
    std::size_t pc = 0;
    while (pc < n) {
      const std::uint8_t byte = data[pc];
      const std::int32_t column = byte_column_[byte];
      if (column >= 0) out[static_cast<std::size_t>(column)] += 1.0;
      pc += 1 + arithmetic_push_skip(byte);
    }
  } else {
    // Table fallback: a revised opcode table added immediates outside the
    // PUSH range, so honor the LUT.
    const std::array<std::uint8_t, 256>& skip = immediate_width_lut();
    std::size_t pc = 0;
    while (pc < n) {
      const std::uint8_t byte = data[pc];
      const std::int32_t column = byte_column_[byte];
      if (column >= 0) out[static_cast<std::size_t>(column)] += 1.0;
      pc += 1 + static_cast<std::size_t>(skip[byte]);
    }
  }
  FeatureInstruments& instruments = feature_instruments();
  instruments.rows.inc();
  instruments.bytes.inc(n);
}

std::vector<double> HistogramVocabulary::transform(const Bytecode& code) const {
  std::vector<double> counts(mnemonics_.size(), 0.0);
  transform_into(code, counts);
  return counts;
}

std::vector<double> HistogramVocabulary::transform_legacy(
    const Bytecode& code) const {
  std::vector<double> counts(mnemonics_.size(), 0.0);
  const evm::Disassembler disassembler;
  const evm::Disassembly listing = disassembler.disassemble(code);
  for (const evm::Instruction& ins : listing.instructions) {
    const auto it = index_.find(std::string(ins.mnemonic));
    if (it != index_.end()) counts[it->second] += 1.0;
  }
  return counts;
}

ml::Matrix HistogramVocabulary::transform_all(
    ml::BytecodeBatchView corpus) const {
  obs::ScopedSpan span("features.transform_all");
  common::ScopedTimer timer([](double seconds) {
    feature_instruments().transform_all_us.record(seconds * 1e6);
  });
  ml::Matrix out(corpus.size(), mnemonics_.size());
  for (std::size_t r = 0; r < corpus.size(); ++r) {
    transform_into(*corpus[r], out.row(r));
  }
  return out;
}

// --- R2D2 images ----------------------------------------------------------------

ml::nn::Tensor r2d2_image(const Bytecode& code, std::size_t side) {
  ml::nn::Tensor image({3, side, side});
  const auto& bytes = code.bytes();
  const std::size_t pixels = side * side;
  for (std::size_t p = 0; p < pixels; ++p) {
    for (std::size_t channel = 0; channel < 3; ++channel) {
      const std::size_t byte_index = p * 3 + channel;
      if (byte_index >= bytes.size()) return image;  // zero padding
      image.at3(channel, p / side, p % side) =
          static_cast<float>(bytes[byte_index]) / 255.0F;
    }
  }
  return image;
}

// --- FrequencyEncoder -------------------------------------------------------------

namespace {
std::string operand_key_of(const evm::Instruction& ins) {
  return ins.operand.has_value() ? ins.operand->to_hex() : "-";
}

/// The mnemonic an opcode byte always disassembles to.
std::string_view mnemonic_of_byte(std::uint8_t byte) {
  const evm::OpcodeInfo* info = evm::OpcodeTable::shanghai().find(byte);
  return info != nullptr ? info->mnemonic : evm::unknown_mnemonic(byte);
}

/// The static gas an opcode byte always disassembles to (0 for undefined).
std::uint32_t gas_of_byte(std::uint8_t byte) {
  const evm::OpcodeInfo* info = evm::OpcodeTable::shanghai().find(byte);
  return info != nullptr ? info->base_gas : 0;
}
}  // namespace

void FrequencyEncoder::fit(const std::vector<const Bytecode*>& corpus) {
  obs::ScopedSpan span("features.freq_fit");
  mnemonic_table_.clear();
  operand_table_.clear();
  gas_table_.clear();
  operand_value_table_.clear();
  fit_cache_.clear();
  mnemonic_lut_.fill(0.0);
  gas_lut_.fill(0.0);
  dash_freq_ = 0.0;

  // Pass 1: stream every code once. Mnemonic and gas counts accumulate into
  // a 256-entry array (both are pure functions of the byte); operand counts
  // accumulate into a value-keyed hash table reserved up front — no string
  // keys, no per-instruction allocation.
  std::array<double, 256> byte_counts{};
  std::unordered_map<evm::U256, double> operand_counts;
  std::size_t corpus_bytes = 0;
  for (const Bytecode* code : corpus) corpus_bytes += code->size();
  operand_counts.reserve(std::max<std::size_t>(corpus_bytes / 8, 64));
  double dash_count = 0.0;
  double total = 0.0;
  for (const Bytecode* code : corpus) {
    disassembler_.for_each(*code, [&](const evm::InstructionView& view) {
      byte_counts[view.opcode] += 1.0;
      if (view.has_operand()) {
        operand_counts[view.operand()] += 1.0;
      } else {
        dash_count += 1.0;
      }
      total += 1.0;
    });
  }
  if (total <= 0.0) return;

  // Fold into the legacy string/gas-keyed tables (oracle + persistence
  // surface). Counts are exact sums of 1.0, so the fold is bit-identical
  // to accumulating there directly.
  for (std::size_t b = 0; b < 256; ++b) {
    if (byte_counts[b] <= 0.0) continue;
    mnemonic_table_[std::string(
        mnemonic_of_byte(static_cast<std::uint8_t>(b)))] = byte_counts[b];
    gas_table_[gas_of_byte(static_cast<std::uint8_t>(b))] += byte_counts[b];
  }
  for (const auto& [value, count] : operand_counts) {
    operand_table_[value.to_hex()] = count;
  }
  if (dash_count > 0.0) operand_table_["-"] = dash_count;

  // Normalize to the max frequency so the most common entries saturate the
  // channel (the paper's "higher intensity for more frequent" mapping).
  auto normalize = [](auto& table) {
    double max_count = 0.0;
    for (const auto& [key, count] : table) max_count = std::max(max_count, count);
    if (max_count <= 0.0) return;
    for (auto& [key, count] : table) count /= max_count;
  };
  normalize(mnemonic_table_);
  normalize(operand_table_);
  normalize(gas_table_);

  // Compile the channel LUTs from the normalized tables. The B channel is
  // keyed by the gas *value*, which several bytes can share, so it goes
  // through gas_table_ rather than byte_counts.
  for (std::size_t b = 0; b < 256; ++b) {
    const auto m_it = mnemonic_table_.find(
        std::string(mnemonic_of_byte(static_cast<std::uint8_t>(b))));
    if (m_it != mnemonic_table_.end()) mnemonic_lut_[b] = m_it->second;
    const auto g_it = gas_table_.find(gas_of_byte(static_cast<std::uint8_t>(b)));
    if (g_it != gas_table_.end()) gas_lut_[b] = g_it->second;
  }
  double operand_max = dash_count;
  for (const auto& [value, count] : operand_counts) {
    operand_max = std::max(operand_max, count);
  }
  operand_value_table_.reserve(operand_counts.size());
  for (const auto& [value, count] : operand_counts) {
    operand_value_table_.emplace(value, count / operand_max);
  }
  if (dash_count > 0.0) dash_freq_ = dash_count / operand_max;

  // Pass 2: intern the per-code pixel stream for the fitted corpus, so a
  // transform() over the same corpus (the VisionAdapter fit->encode
  // sequence) is a cache copy instead of a second walk.
  for (const Bytecode* code : corpus) {
    const auto [it, inserted] =
        fit_cache_.try_emplace(code->code_hash());
    if (!inserted) continue;  // bit-identical duplicate (proxy clone)
    std::vector<std::array<float, 3>>& pixels = it->second;
    pixels.reserve(code->size());
    disassembler_.for_each(*code, [&](const evm::InstructionView& view) {
      pixels.push_back({static_cast<float>(mnemonic_lut_[view.opcode]),
                        static_cast<float>(operand_channel(view)),
                        static_cast<float>(gas_lut_[view.opcode])});
    });
    pixels.shrink_to_fit();
  }
}

double FrequencyEncoder::mnemonic_freq(std::string_view mnemonic) const {
  const auto it = mnemonic_table_.find(std::string(mnemonic));
  return it == mnemonic_table_.end() ? 0.0 : it->second;
}

double FrequencyEncoder::operand_freq(const std::string& operand_key) const {
  const auto it = operand_table_.find(operand_key);
  return it == operand_table_.end() ? 0.0 : it->second;
}

double FrequencyEncoder::gas_freq(std::uint32_t gas) const {
  const auto it = gas_table_.find(gas);
  return it == gas_table_.end() ? 0.0 : it->second;
}

double FrequencyEncoder::operand_channel(
    const evm::InstructionView& view) const {
  if (!view.has_operand()) return dash_freq_;
  const auto it = operand_value_table_.find(view.operand());
  return it == operand_value_table_.end() ? 0.0 : it->second;
}

ml::nn::Tensor FrequencyEncoder::transform(const Bytecode& code,
                                           std::size_t side) const {
  ml::nn::Tensor image({3, side, side});
  const std::size_t pixels = side * side;
  const auto cached = fit_cache_.find(code.code_hash());
  if (cached != fit_cache_.end()) {
    const std::vector<std::array<float, 3>>& interned = cached->second;
    const std::size_t count = std::min(pixels, interned.size());
    for (std::size_t p = 0; p < count; ++p) {
      image.at3(0, p / side, p % side) = interned[p][0];
      image.at3(1, p / side, p % side) = interned[p][1];
      image.at3(2, p / side, p % side) = interned[p][2];
    }
    return image;
  }
  std::size_t p = 0;
  disassembler_.for_each(code, [&](const evm::InstructionView& view) {
    if (p >= pixels) return;
    image.at3(0, p / side, p % side) =
        static_cast<float>(mnemonic_lut_[view.opcode]);
    image.at3(1, p / side, p % side) =
        static_cast<float>(operand_channel(view));
    image.at3(2, p / side, p % side) =
        static_cast<float>(gas_lut_[view.opcode]);
    ++p;
  });
  return image;
}

ml::nn::Tensor FrequencyEncoder::transform_legacy(const Bytecode& code,
                                                  std::size_t side) const {
  ml::nn::Tensor image({3, side, side});
  const evm::Disassembly listing = disassembler_.disassemble(code);
  const std::size_t pixels = side * side;
  for (std::size_t p = 0; p < pixels && p < listing.instructions.size(); ++p) {
    const evm::Instruction& ins = listing.instructions[p];
    image.at3(0, p / side, p % side) =
        static_cast<float>(mnemonic_freq(ins.mnemonic));
    image.at3(1, p / side, p % side) =
        static_cast<float>(operand_freq(operand_key_of(ins)));
    image.at3(2, p / side, p % side) = static_cast<float>(gas_freq(ins.gas));
  }
  return image;
}

// --- NgramTokenizer ------------------------------------------------------------------

std::uint32_t NgramTokenizer::gram_at(const Bytecode& code,
                                      std::size_t offset) {
  std::uint32_t gram = 0;
  for (std::size_t b = 0; b < 3; ++b) {
    gram = (gram << 8) |
           (offset + b < code.size() ? code.bytes()[offset + b] : 0u);
  }
  return gram;
}

void NgramTokenizer::fit(const std::vector<const Bytecode*>& corpus) {
  obs::ScopedSpan span("features.ngram_fit");
  // Open-addressing accumulator instead of a red-black tree: the per-gram
  // node churn dominated fit. Reserved to the gram-count upper bound so the
  // table never rehashes mid-corpus.
  std::size_t gram_upper_bound = 0;
  for (const Bytecode* code : corpus) {
    gram_upper_bound += (code->size() + 2) / 3;
  }
  std::unordered_map<std::uint32_t, std::size_t> counts;
  counts.reserve(std::max<std::size_t>(gram_upper_bound, 64));
  for (const Bytecode* code : corpus) {
    for (std::size_t offset = 0; offset < code->size(); offset += 3) {
      ++counts[gram_at(*code, offset)];
    }
  }
  // Keep the vocab_size - 1 most frequent grams (0 is reserved for UNK).
  // Explicit (count desc, gram desc) order — exactly what the old
  // reverse-sorted std::map ranking produced — so the kept vocabulary and
  // its ids are unchanged.
  std::vector<std::pair<std::size_t, std::uint32_t>> ranked;
  ranked.reserve(counts.size());
  for (const auto& [gram, count] : counts) ranked.emplace_back(count, gram);
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second > b.second;
            });

  gram_ids_.clear();
  const std::size_t keep = std::min(ranked.size(), vocab_size_ - 1);
  gram_ids_.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    gram_ids_.emplace(ranked[i].second, i + 1);
  }
}

TokenSequence NgramTokenizer::transform(const Bytecode& code) const {
  TokenSequence out;
  out.reserve(code.size() / 3 + 1);
  for (std::size_t offset = 0; offset < code.size(); offset += 3) {
    const auto it = gram_ids_.find(gram_at(code, offset));
    out.push_back(it == gram_ids_.end() ? 0 : it->second);
  }
  if (out.empty()) out.push_back(0);
  return out;
}

TokenSequence byte_tokens(const Bytecode& code) {
  TokenSequence out;
  out.reserve(code.size());
  for (std::uint8_t byte : code.bytes()) out.push_back(byte);
  if (out.empty()) out.push_back(256);
  return out;
}

}  // namespace phishinghook::core
