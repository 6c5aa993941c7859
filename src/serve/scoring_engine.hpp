// Online scoring engine: micro-batched, multi-threaded contract scoring.
//
// The deployment scenario (§IV-F) is a stream of addresses arriving from
// wallets and monitors that must be answered within a signing budget of
// seconds. The engine accepts addresses on any number of producer threads,
// queues them, and has a worker pool drain the queue in micro-batches:
//
//   try_submit(addr, done)
//     -> [bounded queue] -> worker: shed expired deadlines
//                             -> Explorer::get_code (retried): decoded
//                                code, account-carried code hash
//                             -> score cache?
//                             -> one score_batch per batch
//                             -> cache fill -> done(result)
//
// The detector is any ml::Scorer — a single fitted model of any family,
// or a composite like serve::CascadeScorer. Batching exists because
// scorers are batch-oriented (one feature-extraction + model pass
// amortizes over the batch) and because duplicate code hashes inside a
// batch collapse to a single model row. `max_wait_us` bounds how long the
// first request of a batch waits for company, keeping tail latency within
// the signing budget.
//
// Fault isolation contract: the inputs are adversarial and the upstream is
// unreliable, so *no request outcome is an exception*. Every completion
// receives a ScoreResult carrying a definite ScoreStatus; a throwing
// extract is confined to its slot (after RetryPolicy-governed retries of
// transient faults), a throwing score_batch fails only the slots that
// actually needed the model — cache hits and empty-code slots in the same
// batch still deliver their valid results — and a failing *heavy* cascade
// stage downgrades its rows to the stage-0 score (kDegraded, not cached)
// instead of failing them. Overload is handled by
// admission control (`max_queue`, reject-on-full) and per-request
// deadlines (`deadline_us`, expired requests shed before batching), both
// reported through the kShed status rather than silent drops:
// requests_completed + requests_failed + requests_shed always equals
// requests_submitted once the queue drains.
//
// Thread-safety contract: the detector passed in must have a read-only,
// concurrently callable score_batch (true for every fitted adapter —
// vocabulary/encoder/tokenizer and model weights are immutable at
// inference time — and for CascadeScorer over such stages).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "chain/explorer.hpp"
#include "common/retry.hpp"
#include "common/timer.hpp"
#include "ml/scorer.hpp"
#include "obs/request_context.hpp"
#include "serve/metrics.hpp"
#include "serve/score_cache.hpp"

namespace phishinghook::serve {

struct EngineConfig {
  /// Scoring threads; 0 = PHISHINGHOOK_THREADS (default hardware
  /// concurrency), the same knob that sizes the training thread pool.
  std::size_t workers = 4;
  std::size_t max_batch = 32;
  /// How long the worker holds an under-full batch open for more arrivals.
  std::uint64_t max_wait_us = 200;
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Admission control: maximum queued (not yet batched) requests.
  /// 0 = unbounded. A submit against a full queue resolves immediately
  /// with ScoreStatus::kShed instead of queueing.
  std::size_t max_queue = 0;
  /// Per-request deadline measured from try_submit(); 0 = none. Requests still
  /// queued past their deadline are shed (kShed) before any extract or
  /// model work is spent on them.
  std::uint64_t deadline_us = 0;
  /// Retry schedule for *transient* extract faults
  /// (common::TransientError); permanent faults fail the slot immediately.
  common::RetryPolicy extract_retry;
};

/// Definite outcome of a scoring request. Every accepted request's
/// completion receives one of these — never an exception.
enum class ScoreStatus {
  kOk,            ///< scored (model or cache)
  kEmptyCode,     ///< EOA / destroyed contract (scored as 0)
  kDegraded,      ///< heavy cascade stage failed; stage-0 score delivered
  kExtractError,  ///< code fetch failed after retries
  kModelError,    ///< score_batch threw for this slot's batch
  kShed,          ///< dropped by admission control or deadline
};

/// Stable lowercase label for expositions and CLI summaries.
const char* to_string(ScoreStatus status);

/// One completed scoring request.
struct ScoreResult {
  evm::Address address;
  ScoreStatus status = ScoreStatus::kOk;
  double probability = 0.0;   ///< P(phishing); 0 unless kOk/kDegraded
  bool flagged = false;       ///< probability >= 0.5
  bool cache_hit = false;     ///< served from the score cache
  std::uint32_t stage = 0;    ///< cascade stage that produced the score
  std::string model;          ///< model behind that stage, "" if unscored
  std::string error;          ///< diagnostic, empty when ok/empty_code
  double latency_us = 0.0;    ///< try_submit -> completion
  double queue_wait_us = 0.0;  ///< time parked in the engine queue
  std::uint64_t trace_id = 0;  ///< causal id; nonzero once a ctx was minted

  /// The request produced a usable score (kOk, a kDegraded fallback, or
  /// the deliberate 0.0 of kEmptyCode).
  bool ok() const {
    return status == ScoreStatus::kOk || status == ScoreStatus::kEmptyCode ||
           status == ScoreStatus::kDegraded;
  }
};

class ScoringEngine {
 public:
  /// The engine borrows `detector` and `explorer`; both must outlive it.
  /// Any ml::Scorer works — a fitted PhishingClassifier adapter of any
  /// model family, or a composite like serve::CascadeScorer; the engine's
  /// batch loop only speaks the score_batch contract.
  ScoringEngine(const chain::Explorer& explorer, ml::Scorer& detector,
                EngineConfig config = {});

  /// Drains the queue, joins the workers.
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  /// Receives a request's outcome, exactly once per accepted request: on
  /// the worker that scored it, or inline on the submitting thread when a
  /// full queue sheds it. Must not block or throw (it holds a worker).
  using Completion = std::function<void(ScoreResult)>;

  /// Enqueues one address from any thread; `done` runs when it is scored.
  /// Returns false — and never runs `done` — once shutdown() began.
  /// An invalid `ctx` makes the engine mint a lane and close it at
  /// delivery; a valid one continues an upstream lane (socket frame, block
  /// follower), which the caller owns and closes once, also on false.
  /// The hand-off stamp is refreshed here, so queue-wait measures *this*
  /// queue only.
  bool try_submit(const evm::Address& address, obs::RequestContext ctx,
                  Completion done);

  /// Convenience: submit a whole address list and wait for every result,
  /// in input order. Addresses refused because shutdown() began come back
  /// kShed without entering the engine's counters.
  std::vector<ScoreResult> score_all(const std::vector<evm::Address>& addresses);

  /// Stops accepting work, finishes what is queued, joins workers.
  /// Idempotent; also run by the destructor.
  void shutdown();

  const ServiceMetrics& metrics() const { return metrics_; }
  CacheStats cache_stats() const { return cache_.stats(); }

  /// The scorer this engine serves (e.g. for the RPC health handler to
  /// describe cascade stages).
  ml::Scorer& scorer() { return *detector_; }
  const ml::Scorer& scorer() const { return *detector_; }

  /// Syncs pull-model state (score-cache stats, the scorer's own gauges
  /// such as the cascade escalation rate) into the engine registry. Wire
  /// as a net::ScrapeServer pre-scrape hook so /metrics always shows
  /// fresh serve_cache_* / serve_cascade_* values.
  void export_pull_metrics() {
    cache_.export_metrics(metrics_.registry);
    detector_->export_metrics(metrics_.registry);
  }

  /// The engine's private registry, scrapable alongside the global one.
  const obs::MetricsRegistry& prometheus_registry() const {
    return metrics_.registry;
  }

  /// Full Prometheus-style exposition of the engine's private registry
  /// (ServiceMetrics counters/histograms plus a serve_cache_* snapshot).
  void dump_prometheus(std::ostream& out) {
    export_pull_metrics();
    metrics_.registry.write_prometheus(out);
  }

 private:
  struct Request {
    evm::Address address;
    Completion done;
    common::Timer queued;        ///< starts at try_submit()
    obs::RequestContext ctx;     ///< causal identity, hand-off restamped
    bool owns_lane = false;      ///< ctx minted here; deliver() closes it
    double queue_wait_us = 0.0;  ///< filled when the batch pops it
  };

  void worker_loop();
  /// Pops up to max_batch requests, honoring the micro-batch wait.
  /// Returns an empty batch only when stopping.
  std::vector<Request> next_batch();
  void process_batch(std::vector<Request> batch);

  /// Explorer::get_code with the configured transient-fault retry
  /// schedule. The code arrives decoded with its hash attached, so the
  /// request path never hex-encodes or hashes.
  evm::Bytecode extract_code(const evm::Address& address);

  /// Completes one request: stamps address + latency, records the latency
  /// histogram and the completed/failed/shed counter for the status, closes
  /// the lane if the engine minted it, and runs the completion.
  void deliver(Request& request, ScoreResult result);

  const chain::Explorer* explorer_;
  ml::Scorer* detector_;
  EngineConfig config_;

  ShardedScoreCache cache_;
  ServiceMetrics metrics_;

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace phishinghook::serve
