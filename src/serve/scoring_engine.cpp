#include "serve/scoring_engine.hpp"

#include <chrono>
#include <exception>
#include <functional>
#include <unordered_map>

#include "common/errors.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "ml/flat_tree.hpp"
#include "obs/trace.hpp"

namespace phishinghook::serve {

const char* to_string(ScoreStatus status) {
  switch (status) {
    case ScoreStatus::kOk: return "ok";
    case ScoreStatus::kEmptyCode: return "empty_code";
    case ScoreStatus::kDegraded: return "degraded";
    case ScoreStatus::kExtractError: return "extract_error";
    case ScoreStatus::kModelError: return "model_error";
    case ScoreStatus::kShed: return "shed";
  }
  return "unknown";
}

ScoringEngine::ScoringEngine(const chain::Explorer& explorer,
                             ml::Scorer& detector, EngineConfig config)
    : explorer_(&explorer),
      detector_(&detector),
      config_(config),
      cache_(config.cache_capacity),
      queue_(config.max_queue == 0 ? common::kUnbounded : config.max_queue) {
  // workers == 0 = auto: the same PHISHINGHOOK_THREADS knob that sizes the
  // training thread pool sizes the serving pool.
  if (config_.workers == 0) {
    config_.workers = common::ThreadPool::configured_threads();
  }
  if (config_.max_batch == 0) throw InvalidArgument("max_batch must be > 0");
  // Tree detectors serve through a compiled FlatTreeEnsemble; export its
  // compile-time shape so operators can see which inference path is live.
  if (const ml::FlatTreeEnsemble* flat = detector_->flat_ensemble()) {
    metrics_.flat_tree_count.set(static_cast<double>(flat->tree_count()));
    metrics_.flat_node_count.set(static_cast<double>(flat->node_count()));
  }
  // Composite scorers (the cascade) register their hot-path instruments on
  // this engine's private registry, next to the serve_* series.
  detector_->bind_metrics(metrics_.registry);
  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ScoringEngine::~ScoringEngine() { shutdown(); }

void ScoringEngine::deliver(Request& request, ScoreResult result) {
  result.address = request.address;
  result.latency_us = request.queued.seconds() * 1e6;
  result.queue_wait_us = request.queue_wait_us;
  result.trace_id = request.ctx.trace_id;
  // A lane minted at admission ends here; an upstream lane belongs to the
  // submitter, which closes it once its own work on the request is done.
  if (request.owns_lane) obs::finish_request(request.ctx);
  // Every terminal outcome records latency — failed and shed requests held
  // capacity too, and hiding them would flatter the percentiles.
  metrics_.request_latency.record(result.latency_us);
  switch (result.status) {
    case ScoreStatus::kOk:
    case ScoreStatus::kEmptyCode:
      metrics_.requests_completed.inc();
      break;
    case ScoreStatus::kDegraded:
      // A degraded request *was* answered with a usable score — it counts
      // as completed, with its own counter so operators see the fallback.
      metrics_.requests_completed.inc();
      metrics_.requests_degraded.inc();
      break;
    case ScoreStatus::kExtractError:
    case ScoreStatus::kModelError:
      metrics_.requests_failed.inc();
      break;
    case ScoreStatus::kShed:
      metrics_.requests_shed.inc();
      break;
  }
  // A throwing completion breaks its contract; record it rather than let
  // it end the worker thread (and the process).
  try {
    request.done(std::move(result));
  } catch (const std::exception& e) {
    common::log_error("scoring completion threw: ", e.what());
  }
}

bool ScoringEngine::try_submit(const evm::Address& address,
                               obs::RequestContext ctx, Completion done) {
  obs::Tracer& tracer = obs::Tracer::global();
  Request request;
  request.owns_lane = !ctx.valid();
  if (request.owns_lane) ctx = obs::mint_request(tracer);
  // Restamp the hand-off: from here queue-wait means *this* queue, not
  // whatever upstream hop the context already traveled.
  ctx.handoff_us = tracer.now_us();
  request.address = address;
  request.ctx = ctx;
  request.done = std::move(done);
  const common::PushResult pushed = queue_.try_push(request);
  if (pushed == common::PushResult::kClosed) {
    if (request.owns_lane) obs::finish_request(request.ctx, tracer);
    return false;
  }
  metrics_.requests_submitted.inc();
  if (pushed == common::PushResult::kFull) {
    // Reject-on-full: answer right here instead of letting the queue grow
    // without bound — the caller learns immediately and can back off.
    ScoreResult shed;
    shed.status = ScoreStatus::kShed;
    shed.error = "queue full (max_queue=" +
                 std::to_string(config_.max_queue) + ")";
    deliver(request, std::move(shed));
  }
  return true;
}

std::vector<ScoreResult> ScoringEngine::score_all(
    const std::vector<evm::Address>& addresses) {
  std::vector<ScoreResult> results(addresses.size());
  common::InFlight pending;
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    pending.enter();
    const bool accepted = try_submit(
        addresses[i], obs::RequestContext{}, [&, i](ScoreResult result) {
          results[i] = std::move(result);
          pending.leave();
        });
    if (!accepted) {
      results[i].address = addresses[i];
      results[i].status = ScoreStatus::kShed;
      results[i].error = "engine shut down";
      pending.leave();
    }
  }
  pending.wait_idle();
  return results;
}

void ScoringEngine::shutdown() {
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ScoringEngine::worker_loop() {
  const std::chrono::microseconds wait(config_.max_wait_us);
  for (;;) {
    std::vector<Request> batch = queue_.pop_batch(config_.max_batch, wait);
    if (batch.empty()) return;  // closed and drained
    process_batch(std::move(batch));
  }
}

evm::Bytecode ScoringEngine::extract_code(const evm::Address& address) {
  return config_.extract_retry.run(
      [&] { return explorer_->get_code(address); },
      /*salt=*/static_cast<std::uint64_t>(std::hash<evm::Address>{}(address)),
      [this] { metrics_.retries.inc(); });
}

void ScoringEngine::process_batch(std::vector<Request> batch) {
  obs::ScopedSpan batch_span("serve.batch");
  obs::Tracer& tracer = obs::Tracer::global();

  // Every popped request just finished its queue-wait stage — attribute it
  // before anything else.
  const double popped_us = tracer.now_us();
  for (Request& request : batch) {
    request.queue_wait_us = request.ctx.wait_us(popped_us);
    metrics_.stage_queue_wait.record(request.queue_wait_us);
    obs::stage_slice(request.ctx, "req.queue", request.ctx.handoff_us,
                     popped_us, tracer);
    if (request.ctx.valid()) tracer.flow_step(request.ctx.trace_id);
  }

  metrics_.batches.inc();
  metrics_.batched_requests.inc(batch.size());
  common::ScopedTimer batch_timer(
      [this](double s) { metrics_.batch_latency.record(s * 1e6); });

  struct Slot {
    evm::Bytecode code;
    double probability = 0.0;
    std::uint32_t stage = 0;
    ScoreStatus status = ScoreStatus::kOk;
    std::string error;
    bool cache_hit = false;
  };
  std::vector<Slot> slots(batch.size());

  // Pull bytecode (decoded, its code hash attached), probe the cache, and
  // collapse duplicate code hashes so each unique miss costs exactly one
  // model row. Extraction is per-slot fault-isolated: one hostile address
  // fails its own slot, never the batch, never the worker.
  std::unordered_map<evm::Hash256, std::size_t, evm::DigestHash> miss_index;
  std::vector<const evm::Bytecode*> miss_codes;
  std::vector<std::vector<std::size_t>> miss_slots;
  obs::ScopedSpan extract_span("serve.extract");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Slot& slot = slots[i];
    // Per-slot service timing: fetch + cache probe is the extract stage
    // this request experienced, whatever its outcome.
    const double slot_start_us = tracer.now_us();
    [&] {
      try {
        slot.code = extract_code(batch[i].address);
      } catch (const std::exception& e) {
        slot.status = ScoreStatus::kExtractError;
        slot.error = e.what();
        return;
      } catch (...) {
        slot.status = ScoreStatus::kExtractError;
        slot.error = "unknown extract error";
        return;
      }
      if (slot.code.empty()) {
        slot.status = ScoreStatus::kEmptyCode;
        metrics_.empty_code_requests.inc();
        return;
      }
      // The digest arrived with the code: no hashing on this path.
      const evm::Hash256 hash = slot.code.code_hash();
      if (const std::optional<CachedScore> cached = cache_.get(hash)) {
        slot.probability = cached->probability;
        slot.stage = cached->stage;
        slot.cache_hit = true;
        return;
      }
      const auto [it, inserted] = miss_index.try_emplace(hash,
                                                         miss_codes.size());
      if (inserted) {
        miss_codes.push_back(&slot.code);
        miss_slots.emplace_back();
      }
      miss_slots[it->second].push_back(i);
    }();
    const double slot_end_us = tracer.now_us();
    metrics_.stage_extract.record(slot_end_us - slot_start_us);
    obs::stage_slice(batch[i].ctx, "req.extract", slot_start_us, slot_end_us,
                     tracer);
  }
  extract_span.end();

  if (!miss_codes.empty()) {
    std::vector<ml::ScoredRow> rows(miss_codes.size());
    bool scored = false;
    std::string model_error;
    const double predict_start_us = tracer.now_us();
    try {
      obs::ScopedSpan predict_span("serve.predict");
      detector_->score_batch(miss_codes, rows);
      scored = true;
    } catch (const std::exception& e) {
      model_error = e.what();
    } catch (...) {
      model_error = "unknown model error";
    }
    const double predict_end_us = tracer.now_us();
    // The whole miss group shares one model invocation, so each request in
    // it experienced the full invocation as its predict service time —
    // success or failure alike (a throwing model still cost the wall time).
    for (const std::vector<std::size_t>& group : miss_slots) {
      for (std::size_t slot_id : group) {
        metrics_.stage_predict.record(predict_end_us - predict_start_us);
        obs::stage_slice(batch[slot_id].ctx, "req.predict", predict_start_us,
                         predict_end_us, tracer);
      }
    }
    if (scored) {
      metrics_.model_invocations.inc();
      metrics_.model_rows.inc(miss_codes.size());
      for (std::size_t u = 0; u < miss_codes.size(); ++u) {
        // Degraded (heavy-stage-fault fallback) scores are deliberately
        // not cached: the next request for this code hash retries the
        // heavy stage instead of pinning the fallback until eviction.
        if (!rows[u].degraded) {
          cache_.put(miss_codes[u]->code_hash(),
                     CachedScore{rows[u].probability, rows[u].stage});
        }
        for (std::size_t slot_id : miss_slots[u]) {
          slots[slot_id].probability = rows[u].probability;
          slots[slot_id].stage = rows[u].stage;
          if (rows[u].degraded) {
            slots[slot_id].status = ScoreStatus::kDegraded;
          }
        }
      }
    } else {
      // Model failure poisons only the slots that needed the model; cache
      // hits and empty-code slots in this batch still deliver below.
      for (const std::vector<std::size_t>& group : miss_slots) {
        for (std::size_t slot_id : group) {
          slots[slot_id].status = ScoreStatus::kModelError;
          slots[slot_id].error = model_error;
        }
      }
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    ScoreResult result;
    result.status = slots[i].status;
    result.cache_hit = slots[i].cache_hit;
    result.error = std::move(slots[i].error);
    if (slots[i].status == ScoreStatus::kOk ||
        slots[i].status == ScoreStatus::kDegraded) {
      result.probability = slots[i].probability;
      result.flagged = result.probability >= 0.5;
      result.stage = slots[i].stage;
      result.model = detector_->stage_model(slots[i].stage);
    }
    deliver(batch[i], std::move(result));
  }
}

}  // namespace phishinghook::serve
