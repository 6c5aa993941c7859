#include "inputs.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "core/model_registry.hpp"
#include "ml/random_forest.hpp"
#include "serve/artifact.hpp"
#include "synth/chain_miner.hpp"
#include "synth/dataset_builder.hpp"

namespace servebench {

namespace ph = phishinghook;

namespace {

constexpr char kRefMagic[8] = {'S', 'B', 'R', 'E', 'F', 'S', '0', '1'};

std::filesystem::path refs_path(const std::filesystem::path& dir) {
  return dir / "refs.bin";
}

struct MinedChain {
  std::unique_ptr<ph::chain::ChainStore> store;
  std::unique_ptr<ph::chain::Explorer> explorer;
};

MinedChain mine(std::uint64_t seed, std::uint64_t blocks) {
  MinedChain out;
  out.store = std::make_unique<ph::chain::ChainStore>();
  out.explorer = std::make_unique<ph::chain::Explorer>(*out.store);
  ph::synth::MinerConfig config;
  config.seed = miner_seed(seed);
  ph::synth::ChainMiner miner(*out.store, *out.explorer, config);
  for (std::uint64_t b = 0; b < blocks; ++b) miner.mine_next_block();
  return out;
}

}  // namespace

WorkloadShape shape_of(const std::string& workload) {
  WorkloadShape shape;
  if (workload == "rpc_hot") {
    shape.chain_blocks = 1500;  // ~4.5k deployments, ~2.2k unique codes
  } else if (workload == "rpc_backfill") {
    // ~150k deployments, ~72k unique code hashes: more than the default
    // score-cache capacity of 65,536, so the cold pass evicts.
    shape.chain_blocks = 50000;
  } else if (workload == "stream_follow") {
    shape.stream_backlog_blocks = 20000;  // ~60k deployments to follow
    shape.stream_blocks = 1;
    shape.stream_requests = 100000;  // about half of them re-queries
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return shape;
}

std::uint64_t miner_seed(std::uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ull + 7;
}

std::filesystem::path artifact_path(const std::filesystem::path& dir) {
  return dir / "detector.phookmdl";
}

void generate_inputs(std::uint64_t seed, const std::filesystem::path& dir,
                     const WorkloadShape& shape) {
  std::filesystem::create_directories(dir);

  ph::synth::DatasetConfig dataset;
  dataset.target_size = 1000;
  dataset.seed = seed;
  const ph::synth::BuiltDataset built =
      ph::synth::DatasetBuilder(dataset).build();
  std::vector<const ph::evm::Bytecode*> codes;
  std::vector<int> labels;
  for (const ph::synth::LabeledContract& sample : built.samples) {
    codes.push_back(&sample.code);
    labels.push_back(sample.phishing ? 1 : 0);
  }
  ph::core::HistogramAdapter detector(
      std::make_unique<ph::ml::RandomForestClassifier>(), "random_forest");
  detector.fit(codes, labels);
  ph::serve::save_artifact_file(artifact_path(dir), detector);

  if (shape.chain_blocks == 0) return;

  // References come from the artifact as the server will load it.
  const std::unique_ptr<ph::core::HistogramAdapter> loaded =
      ph::serve::load_artifact_file(artifact_path(dir));
  const MinedChain chain = mine(seed, shape.chain_blocks);
  const std::vector<ph::chain::ContractRecord>& records =
      chain.store->contracts();

  std::vector<ph::evm::Bytecode> unique_codes;
  std::unordered_map<std::string, std::size_t> index_of;
  std::vector<std::size_t> code_of(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ph::evm::Bytecode code = chain.explorer->get_code(records[i].address);
    std::string key(code.bytes().begin(), code.bytes().end());
    auto [it, fresh] = index_of.try_emplace(std::move(key),
                                            unique_codes.size());
    if (fresh) unique_codes.push_back(std::move(code));
    code_of[i] = it->second;
  }
  std::vector<const ph::evm::Bytecode*> batch;
  for (const ph::evm::Bytecode& code : unique_codes) batch.push_back(&code);
  std::vector<ph::ml::ScoredRow> rows(batch.size());
  loaded->score_batch(ph::ml::BytecodeBatchView(batch), rows);

  std::ofstream out(refs_path(dir), std::ios::binary);
  const std::uint64_t count = records.size();
  out.write(kRefMagic, sizeof(kRefMagic));
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ph::evm::Bytecode& code = unique_codes[code_of[i]];
    const std::uint8_t empty = code.empty() ? 1 : 0;
    const double p = empty ? 0.0 : rows[code_of[i]].probability;
    out.write(reinterpret_cast<const char*>(records[i].address.bytes().data()),
              ph::evm::Address::kSize);
    out.write(reinterpret_cast<const char*>(&empty), 1);
    out.write(reinterpret_cast<const char*>(&p), sizeof(p));
  }
  if (!out) throw std::runtime_error("cannot write " + refs_path(dir).string());
}

ChainInputs load_chain_inputs(std::uint64_t seed,
                              const std::filesystem::path& dir,
                              const WorkloadShape& shape) {
  MinedChain chain = mine(seed, shape.chain_blocks);
  std::ifstream in(refs_path(dir), std::ios::binary);
  char magic[sizeof(kRefMagic)] = {};
  std::uint64_t count = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  const std::vector<ph::chain::ContractRecord>& records =
      chain.store->contracts();
  if (!in || std::memcmp(magic, kRefMagic, sizeof(magic)) != 0 ||
      count != records.size()) {
    throw std::runtime_error("reference file does not match the chain");
  }
  ChainInputs inputs;
  inputs.refs.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    Reference& ref = inputs.refs[i];
    std::uint8_t empty = 0;
    std::array<std::uint8_t, ph::evm::Address::kSize> raw{};
    in.read(reinterpret_cast<char*>(raw.data()), raw.size());
    ref.address = ph::evm::Address::from_bytes(raw);
    in.read(reinterpret_cast<char*>(&empty), 1);
    in.read(reinterpret_cast<char*>(&ref.probability), sizeof(double));
    ref.empty_code = empty != 0;
    if (!in || !(ref.address == records[i].address)) {
      throw std::runtime_error("reference file does not match the chain");
    }
  }
  inputs.store = std::move(chain.store);
  inputs.explorer = std::move(chain.explorer);
  return inputs;
}

}  // namespace servebench
