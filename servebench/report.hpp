// Reporting: host facts beside every result, one human-readable line per
// metric (name, value, unit, sample count), and the final machine line.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "spans.hpp"
#include "util.hpp"

namespace servebench {

struct HostFacts {
  long nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string no_simd;      ///< PHISHINGHOOK_NO_SIMD build option
  std::string threads_env;  ///< PHISHINGHOOK_THREADS, or "unset"
  std::string commit;
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;

  static HostFacts collect(const std::string& commit,
                           const std::string& workload, std::uint64_t seed,
                           bool traced);
  std::string json() const;
};

/// Human-readable lines (each starts with "# "), then the result record
/// file at `results` (when non-empty), then — last line of stdout — the
/// JSON object with correct / attempted / failed / metrics. `traced`
/// selects which metric list goes into that object.
void report(std::ostream& out, const HostFacts& host, const Outcome& outcome,
            bool traced, const std::filesystem::path& results);

/// Prints the per-name span self-time table.
void report_self_times(std::ostream& out, const std::vector<SelfTime>& rows);

}  // namespace servebench
