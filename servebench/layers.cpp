#include "layers.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace servebench {

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"net.dispatch_wait_p50_us", "us"},
      {"net.dispatch_wait_p99_us", "us"},
      {"net.handle_p50_us", "us"},
      {"net.parse_p50_us", "us"},
      {"net.shed", "count"},
      {"net.self_p50_us", "us"},
      {"engine.queue_wait_p50_us", "us"},
      {"engine.queue_wait_p99_us", "us"},
      {"engine.extract_p50_us", "us"},
      {"engine.rows_per_batch", "rows"},
      {"engine.latency_p99_us", "us"},
      {"engine.failed", "count"},
      {"engine.shed", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"cache.entries", "count"},
      {"chain.get_code_calls_per_op", "calls/op"},
      {"chain.get_code_us_per_op", "us/op"},
      {"scorer.calls", "count"},
      {"scorer.rows_per_call", "rows"},
      {"scorer.us_per_row", "us"},
      {"scorer.busy_share", "ratio"},
      {"pool.tasks_per_row", "tasks/row"},
      {"pool.task_p50_us", "us"},
      {"features.bytes_per_row", "B/row"},
      {"flat.rows_per_call", "rows"},
      {"stream.addr_queue_wait_p50_us", "us"},
      {"stream.dedup_hit_ratio", "ratio"},
      {"stream.starved_arrivals", "count"},
      {"stream.requery_share", "ratio"},
      {"proc.cpu_us_per_op", "us/op"},
      {"proc.threads_peak", "count"},
      {"client.lateness_p99_us", "us"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

void LayerSet::put(const std::string& name, double value) {
  for (const auto& [known, unit] : layer_metrics()) {
    if (known == name) {
      values_[name].push_back(value);
      return;
    }
  }
  throw std::invalid_argument("unknown layer metric: " + name);
}

void LayerSet::finish(Outcome& outcome) const {
  for (const auto& [name, unit] : layer_metrics()) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      outcome.add_layer(name, 0.0, unit);
    } else {
      outcome.add_layer(name, median(it->second), unit, it->second.size());
    }
  }
}

GlobalCounters GlobalCounters::read() {
  namespace obs = phishinghook::obs;
  obs::MetricsRegistry& g = obs::MetricsRegistry::global();
  GlobalCounters c;
  c.pool_tasks = static_cast<double>(g.counter("threadpool_tasks_total").value());
  c.feature_rows =
      static_cast<double>(g.counter("features_rows_transformed_total").value());
  c.feature_bytes =
      static_cast<double>(g.counter("features_bytes_scanned_total").value());
  c.flat_rows =
      static_cast<double>(g.counter("ml_flat_predict_rows_total").value());
  c.flat_calls =
      static_cast<double>(g.counter("ml_flat_predict_calls_total").value());
  return c;
}

GlobalCounters GlobalCounters::operator-(const GlobalCounters& before) const {
  GlobalCounters d;
  d.pool_tasks = pool_tasks - before.pool_tasks;
  d.feature_rows = feature_rows - before.feature_rows;
  d.feature_bytes = feature_bytes - before.feature_bytes;
  d.flat_rows = flat_rows - before.flat_rows;
  d.flat_calls = flat_calls - before.flat_calls;
  return d;
}

double pool_task_p50_us() {
  return phishinghook::obs::MetricsRegistry::global()
      .histogram("threadpool_task_us")
      .quantile(0.5);
}

}  // namespace servebench
