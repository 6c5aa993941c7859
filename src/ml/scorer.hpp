// Model-agnostic scoring interface: every detector family — the tabular
// HSCs behind a histogram vocabulary, the vision models behind an image
// encoder, the sequence/language models behind a tokenizer — scores a
// batch of raw deployed bytecodes through the same contract:
//
//   score_batch(view, out)   // out[i] = P(phishing) + which stage scored it
//
// Feature extraction is the implementer's job (the per-model hook): a
// Scorer owns whatever pipeline turns bytecode into model input, exactly
// as the paper's MEM demands (fit on the training split only). This is
// what lets the serving path — ScoringEngine's batch loop, the artifact
// save/load path, RpcFrontend — stay ignorant of model families, and what
// makes composite scorers (the cost-aware cascade, A/B splits, shadow
// scoring) expressible as just another Scorer.
//
// Threading contract: score_batch must be safe to call concurrently from
// multiple threads on an already-fitted scorer (all shipped families are
// read-only at inference time). Determinism contract: row i's outcome may
// depend only on view[i] — never on batch composition, timing, or thread
// count — so any batching policy upstream yields bit-identical results.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace phishinghook::evm {
class Bytecode;
}
namespace phishinghook::obs {
class MetricsRegistry;
}

namespace phishinghook::ml {

class FlatTreeEnsemble;  // flat_tree.hpp

/// Borrowed, non-owning view over a batch of deployed bytecodes. The
/// codes must outlive the score_batch call; nothing is copied, and a
/// `std::vector<const evm::Bytecode*>` converts implicitly.
using BytecodeBatchView = std::span<const evm::Bytecode* const>;

/// Per-row outcome of a Scorer invocation.
struct ScoredRow {
  double probability = 0.0;  ///< P(phishing)
  std::uint32_t stage = 0;   ///< cascade stage that produced the score
  /// A heavier stage was supposed to score this row but failed; the
  /// probability is the last healthy stage's output (stage says which).
  bool degraded = false;
};

/// The serving-path contract every detector family implements.
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Scores `view` into `out` (same length, caller-allocated). Throws on
  /// total failure (e.g. the primary model itself is broken); partial
  /// heavy-stage failures in composite scorers degrade rows instead (see
  /// ScoredRow::degraded).
  virtual void score_batch(const BytecodeBatchView& view,
                           std::span<ScoredRow> out) = 0;

  virtual std::string name() const = 0;

  /// Version string surfaced next to scores ("which weights said this");
  /// defaults to "v1" until a scorer carries real lineage.
  virtual std::string version() const { return "v1"; }

  /// Number of internal stages (1 for every single-model scorer).
  virtual std::size_t stage_count() const { return 1; }

  /// Model name behind stage `index` (== name() for single-model scorers).
  virtual std::string stage_model(std::size_t index) const {
    (void)index;
    return name();
  }

  /// The compiled branch-free tree ensemble serving this scorer's hot
  /// path, when one exists (fitted/loaded HSC tree models); nullptr
  /// otherwise. ScoringEngine exports its compile stats as serve gauges.
  virtual const FlatTreeEnsemble* flat_ensemble() const { return nullptr; }

  /// Called once by the owner of a metrics registry (the scoring engine)
  /// so composite scorers can register their hot-path instruments
  /// (per-stage row counters, stage timing histograms). Default: no-op.
  virtual void bind_metrics(obs::MetricsRegistry& registry) { (void)registry; }

  /// Publishes pull-model state (rates, ratios) onto `registry`; wired as
  /// a pre-scrape hook next to the score cache's export. Default: no-op.
  virtual void export_metrics(obs::MetricsRegistry& registry) const {
    (void)registry;
  }

  /// Convenience: score and return just the probabilities.
  std::vector<double> score_probabilities(const BytecodeBatchView& view);
};

}  // namespace phishinghook::ml
