#include "util.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

namespace servebench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t_s) {
  if (t_s <= now_s()) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_s);
  ts.tv_nsec = static_cast<long>((t_s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::below(std::uint64_t n) {
  return static_cast<std::uint64_t>(uniform() * static_cast<double>(n)) %
         n;
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::draw(SplitMix& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     SplitMix& rng) {
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) +
                  16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_per_s;
    if (t >= duration_s) break;
    offsets.push_back(t);
  }
  return offsets;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(samples[lo])) return samples[lo];
  if (std::isinf(samples[hi])) {
    return frac > 0.0 ? samples[hi] : samples[lo];
  }
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

const Metric* Outcome::find_e2e(const std::string& name) const {
  for (const Metric& m : end_to_end) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_time_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

}  // namespace servebench
