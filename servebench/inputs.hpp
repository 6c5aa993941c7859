// Workload inputs, made from the seed alone: the detector artifact, the
// chain the engine reads, and the reference verdict of every address on
// it.
//
// Input generation runs in its own process (`servebench gen`) so that the
// measuring process's global registry, CPU clock and peak RSS hold only
// the serving stack: training and reference scoring never touch them. The
// measuring process re-mines the same chain from the same seed and checks
// it against the reference file address by address.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain_store.hpp"
#include "chain/explorer.hpp"

namespace servebench {

/// Chain and stream sizes of one workload.
struct WorkloadShape {
  std::uint64_t chain_blocks = 0;    ///< pre-mined segment (RPC workloads)
  std::uint64_t stream_backlog_blocks = 0;  ///< mined before the follower starts
  std::uint64_t stream_blocks = 0;    ///< StreamConfig::max_blocks
  std::uint64_t stream_requests = 0;  ///< StreamConfig::max_requests
};

/// The shape each named workload runs at; throws on an unknown name.
WorkloadShape shape_of(const std::string& workload);

/// The verdict the served detector must return for one address.
struct Reference {
  phishinghook::evm::Address address;
  bool empty_code = false;  ///< expected status empty_code (probability 0)
  double probability = 0.0;
};

/// A mined chain segment plus its reference verdicts, in chain order.
struct ChainInputs {
  std::unique_ptr<phishinghook::chain::ChainStore> store;
  std::unique_ptr<phishinghook::chain::Explorer> explorer;
  std::vector<Reference> refs;
};

std::filesystem::path artifact_path(const std::filesystem::path& dir);

/// Trains the detector (default random forest over the opcode histogram,
/// fitted on the seeded synth dataset), saves it as the artifact, and for
/// a chain workload mines the segment and writes the reference verdicts,
/// computed with the *loaded* artifact's score_batch.
void generate_inputs(std::uint64_t seed, const std::filesystem::path& dir,
                     const WorkloadShape& shape);

/// Re-mines the chain segment and loads the reference verdicts. Throws if
/// the mined chain differs from the one the references were made on.
ChainInputs load_chain_inputs(std::uint64_t seed,
                              const std::filesystem::path& dir,
                              const WorkloadShape& shape);

/// Miner seed of a workload seed (the stream workload mines its chain
/// live inside the stack, from this seed).
std::uint64_t miner_seed(std::uint64_t seed);

}  // namespace servebench
