// Small shared vocabulary of the serving benchmark: clocks, the
// benchmark's own input RNG, exact sample quantiles, and the metric record
// every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// Seconds on the steady clock (CLOCK_MONOTONIC on Linux).
double now_s();

/// Sleeps until the steady-clock instant `t_s` (absolute, seconds).
void sleep_until_s(double t_s);

/// SplitMix64. The benchmark draws its own arrival schedules and address
/// mixes from this generator rather than the repository's RNG, so a change
/// to the program's RNG cannot change the load the benchmark offers.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), drawn by inverting
/// the cumulative distribution.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from phase start) of a Poisson process at
/// `rate_per_s` over [0, duration_s).
std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     SplitMix& rng);

/// Linear-interpolated sample quantile (q in [0, 1]). +inf samples stand
/// for failed operations: a quantile that lands on or interpolates toward
/// one is +inf. Empty input gives 0.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// One reported number. `samples` is how many observations it summarizes
/// (0 when it is a single reading, such as a counter).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one workload run produces.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// End-to-end figures printed beside the gated ones but kept out of the
  /// result line: the wall-clock rates and latencies of the gated
  /// workloads, whose run-to-run spread on a shared host is wider than any
  /// bound the benchmark may set (README.md).
  std::vector<Metric> ungated;
  std::vector<Metric> layers;
  std::vector<std::string> notes;  ///< human-readable detail lines

  void add_e2e(std::string name, double value, std::string unit,
               std::size_t samples = 0) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void add_ungated(std::string name, double value, std::string unit,
                   std::size_t samples = 0) {
    ungated.push_back({std::move(name), value, std::move(unit), samples});
  }
  void add_layer(std::string name, double value, std::string unit,
                 std::size_t samples = 0) {
    layers.push_back({std::move(name), value, std::move(unit), samples});
  }
  const Metric* find_e2e(const std::string& name) const;
};

/// x / y, or 0 when y is 0 (a layer the workload never reached).
inline double ratio(double x, double y) { return y == 0.0 ? 0.0 : x / y; }

/// Peak resident set size of this process, MiB.
double peak_rss_mb();
/// User + system CPU time of this process, microseconds.
double cpu_time_us();
/// CPU time of the calling thread, microseconds.
double thread_cpu_us();
/// Current thread count of this process (/proc/self/status).
int thread_count();

}  // namespace servebench
