// The three serving workloads. Each stands the stack up through its public
// API with the shipped defaults — serve::load_artifact_file ->
// ScoringEngine(EngineConfig{}) -> RpcFrontend(RpcConfig{}) on a loopback
// ephemeral port, or -> StreamCoordinator — drives it from this process,
// checks every verdict, and fills an Outcome.
//
//   rpc_hot        open loop, Poisson phook_score over <= 4 keep-alive
//                  connections, Zipf over a warmed hot set: a 2,000 req/s
//                  reference phase, then the capacity-knee rate ladder
//   rpc_backfill   closed loop, <= 4 connections each with one 64-address
//                  phook_scoreBatch frame in flight, every deployment of a
//                  pre-mined segment in chain order, cold engine per pass
//   stream_follow  in process, StreamConfig{} unpaced with fixed
//                  max_blocks / max_requests, fresh chain and engine per
//                  pass
//
// Why each exists, and which layer metric should move which end-to-end
// metric, is written up in README.md next to this file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "inputs.hpp"
#include "ml/scorer.hpp"
#include "util.hpp"

namespace servebench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measured time; 0 measures one pass
  /// Swap in the timing decorators and record spans (the traced run).
  bool traced = false;
  /// Where `servebench gen` left the artifact and references.
  std::filesystem::path dir;
  WorkloadShape shape;
  /// Test hook: wraps the loaded detector before the engine sees it (the
  /// self-tests perturb a row through it). Empty in every real run.
  std::function<std::unique_ptr<phishinghook::ml::Scorer>(
      phishinghook::ml::Scorer&)>
      wrap_scorer;
};

/// Runs one workload for `config.seconds`. `chain` holds the pre-mined
/// segment of the RPC workloads and is ignored by stream_follow.
Outcome run_workload(const RunConfig& config, const ChainInputs& chain);

/// The rpc_backfill workload alone (the self-tests drive it directly).
Outcome run_rpc_backfill(const RunConfig& config, const ChainInputs& chain);

}  // namespace servebench
