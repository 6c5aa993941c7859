// Feature-extraction bench: legacy (Disassembly + string lookup) vs fast
// (256-entry LUT, single pass over raw bytes) histogram transforms, written
// as BENCH_extract.json next to the binary.
//
// Both paths sweep the same synthesized corpus on one thread, so MB/s and
// the speedup ratio compare like for like. ci.sh runs `--smoke` and
// asserts the speedup floor.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/features.hpp"
#include "synth/dataset_builder.hpp"

namespace {

using phishinghook::common::Timer;
using phishinghook::core::Bytecode;
using phishinghook::core::HistogramVocabulary;

struct Row {
  std::string path;
  double ms = 0.0;          // one corpus sweep
  double mb_per_s = 0.0;
  double speedup = 1.0;     // vs the single-thread legacy sweep
};

/// Best-of-`reps` wall time of one corpus sweep (each sweep runs `inner`
/// passes to stay well above timer resolution); returns ms per sweep.
template <typename Fn>
double best_sweep_ms(int reps, int inner, const Fn& sweep) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    for (int i = 0; i < inner; ++i) sweep();
    best = std::min(best, timer.milliseconds() / inner);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  phishinghook::synth::DatasetConfig config;
  config.target_size = smoke ? 120 : 600;
  config.seed = 42;
  const phishinghook::synth::BuiltDataset dataset =
      phishinghook::synth::DatasetBuilder(config).build();
  std::vector<const Bytecode*> corpus;
  std::size_t corpus_bytes = 0;
  for (const auto& sample : dataset.samples) {
    corpus.push_back(&sample.code);
    corpus_bytes += sample.code.size();
  }

  HistogramVocabulary vocab;
  vocab.fit(corpus);
  const double mb = static_cast<double>(corpus_bytes) / (1024.0 * 1024.0);
  std::printf("bench_extract: %zu contracts, %.2f MB, vocab %zu%s\n",
              corpus.size(), mb, vocab.size(), smoke ? " [smoke]" : "");

  const int reps = smoke ? 3 : 5;
  const int inner = smoke ? 5 : 10;
  double checksum = 0.0;  // keeps the transforms observable
  std::vector<Row> rows;

  {
    Row row;
    row.path = "legacy";
    row.ms = best_sweep_ms(reps, inner, [&] {
      for (const Bytecode* code : corpus) {
        const std::vector<double> counts = vocab.transform_legacy(*code);
        checksum += counts.empty() ? 0.0 : counts[0];
      }
    });
    row.mb_per_s = row.ms > 0.0 ? mb / (row.ms / 1000.0) : 0.0;
    rows.push_back(row);
  }
  const double legacy_ms = rows[0].ms;
  {
    Row row;
    row.path = "fast";
    std::vector<double> buffer(vocab.size());
    row.ms = best_sweep_ms(reps, inner, [&] {
      for (const Bytecode* code : corpus) {
        vocab.transform_into(*code, buffer);
        checksum += buffer.empty() ? 0.0 : buffer[0];
      }
    });
    row.mb_per_s = row.ms > 0.0 ? mb / (row.ms / 1000.0) : 0.0;
    row.speedup = row.ms > 0.0 ? legacy_ms / row.ms : 1.0;
    rows.push_back(row);
  }

  for (const Row& row : rows) {
    std::printf("  %-14s %9.3f ms/sweep  %9.1f MB/s  %6.1fx\n",
                row.path.c_str(), row.ms, row.mb_per_s, row.speedup);
  }
  std::printf("  (checksum %.1f)\n", checksum);

  FILE* out = std::fopen("BENCH_extract.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_extract.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"extract\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"contracts\": %zu,\n", corpus.size());
  std::fprintf(out, "  \"corpus_bytes\": %zu,\n", corpus_bytes);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"path\": \"%s\", \"threads\": 1, \"ms\": %.4f, "
                 "\"mb_per_s\": %.2f, \"speedup_vs_legacy\": %.2f}%s\n",
                 row.path.c_str(), row.ms, row.mb_per_s,
                 row.speedup, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_extract.json (%zu rows)\n", rows.size());
  return 0;
}
