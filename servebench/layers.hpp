// Per-layer metrics of the traced run. Every traced run reports the full
// set below, whichever workload it is; a layer the workload never reaches
// reports 0 (for example net.* on stream_follow, stream.* on the RPC
// workloads).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util.hpp"

namespace servebench {

/// Name and unit of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Collects readings per pass and reports the median over passes.
class LayerSet {
 public:
  /// Throws std::invalid_argument for a name not in layer_metrics().
  void put(const std::string& name, double value);
  void finish(Outcome& outcome) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Cumulative series the libraries publish on the global registry
/// (thread pool, feature extraction, flat-tree predict). Read before and
/// after a pass; the difference is that pass's work.
struct GlobalCounters {
  double pool_tasks = 0.0;
  double feature_rows = 0.0;
  double feature_bytes = 0.0;
  double flat_rows = 0.0;
  double flat_calls = 0.0;

  static GlobalCounters read();
  GlobalCounters operator-(const GlobalCounters& before) const;
};

/// p50 of the global thread-pool task histogram (process lifetime; the
/// measuring process runs nothing but the serving stack).
double pool_task_p50_us();

}  // namespace servebench
