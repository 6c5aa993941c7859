// Test-side bridge from ScoringEngine's completion callback to a future:
// lets a test submit a whole wave first and collect the results in order
// afterwards, the way the engine's real callers overlap their requests.
#pragma once

#include <future>
#include <memory>
#include <utility>

#include "common/errors.hpp"
#include "serve/scoring_engine.hpp"

namespace phishinghook {

/// try_submit whose completion fulfils the returned future. Throws
/// StateError when the engine refuses (shutdown began).
inline std::future<serve::ScoreResult> submit_future(
    serve::ScoringEngine& engine, const evm::Address& address,
    obs::RequestContext ctx = {}) {
  auto promise = std::make_shared<std::promise<serve::ScoreResult>>();
  std::future<serve::ScoreResult> future = promise->get_future();
  const bool accepted =
      engine.try_submit(address, ctx, [promise](serve::ScoreResult result) {
        promise->set_value(std::move(result));
      });
  if (!accepted) throw StateError("ScoringEngine refused: shutting down");
  return future;
}

}  // namespace phishinghook
