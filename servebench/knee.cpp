#include "knee.hpp"

#include <algorithm>
#include <cmath>

#include "util.hpp"

namespace servebench {

bool rung_passes(const Rung& rung, double slo_us) {
  return rung.p99_us <= slo_us && rung.failed * 1000 <= rung.attempted &&
         !rung.backlog_grew;
}

double knee_rps(std::vector<Rung> rungs, double slo_us) {
  if (rungs.empty()) return 0.0;
  std::sort(rungs.begin(), rungs.end(), [](const Rung& a, const Rung& b) {
    return a.rate_per_s < b.rate_per_s;
  });
  std::size_t f = 0;
  while (f < rungs.size() && rung_passes(rungs[f], slo_us)) ++f;
  if (f == rungs.size()) return rungs.back().rate_per_s;
  if (f == 0) return 0.0;
  const Rung& pass = rungs[f - 1];
  const Rung& fail = rungs[f];
  const double lp = std::log(std::max(pass.p99_us, 1.0));
  const double lf = std::log(std::max(fail.p99_us, slo_us));
  const double ls = std::log(slo_us);
  double frac = 1.0;
  if (std::isinf(lf)) {
    frac = 0.0;  // failures dominate the tail: cross at the passing rung
  } else if (lf > lp) {
    frac = std::clamp((ls - lp) / (lf - lp), 0.0, 1.0);
  }
  if (frac == 0.0) return pass.rate_per_s;
  const double lr = std::log(pass.rate_per_s);
  return std::exp(lr + frac * (std::log(fail.rate_per_s) - lr));
}

bool backlog_grew(std::vector<double> due_s, std::vector<double> sent_s,
                  double duration_s, double rate_per_s, double slo_us) {
  std::sort(due_s.begin(), due_s.end());
  std::sort(sent_s.begin(), sent_s.end());
  const auto backlog_at = [&](double t) {
    const auto due = std::upper_bound(due_s.begin(), due_s.end(), t) -
                     due_s.begin();
    const auto sent = std::upper_bound(sent_s.begin(), sent_s.end(), t) -
                      sent_s.begin();
    return static_cast<double>(due - sent);
  };
  constexpr int kPoints = 64;
  std::vector<double> early;
  std::vector<double> late;
  for (int i = 1; i <= kPoints; ++i) {
    const double x = static_cast<double>(i) / kPoints;  // (0, 1]
    if (x > 0.25 && x <= 0.5) early.push_back(backlog_at(x * duration_s));
    if (x > 0.75) late.push_back(backlog_at(x * duration_s));
  }
  const double slack = std::max(4.0, rate_per_s * slo_us * 1e-6);
  return median(std::move(late)) - median(std::move(early)) > slack;
}

}  // namespace servebench
