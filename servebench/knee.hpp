// Capacity knee of an open-loop rate ladder: the offered rate at which the
// p99 latency, timed from each request's due time with failures counted as
// misses, crosses the SLO.
#pragma once

#include <cstdint>
#include <vector>

namespace servebench {

/// The latency limit the knee is measured against. 25 ms, not 5 ms: on a
/// virtualised host the stack's p99 at *idle* load is already 1-10 ms of
/// vCPU wake-up and preemption jitter (a request crosses ~7 thread
/// hand-offs), so a 5 ms limit measured the hypervisor, not the program.
/// At 25 ms only the stack's own queueing crosses it, just below capacity.
/// The paper's signing budget (seconds) stays far above either.
inline constexpr double kSloUs = 25000.0;

/// One fixed-rate phase of the ladder.
struct Rung {
  double rate_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double p99_us = 0.0;  ///< over every request, failures counted as +inf
  bool backlog_grew = false;
};

/// A rung passes when p99 <= SLO, at most 0.1 % of its requests failed,
/// and the client's pending backlog did not grow within it.
bool rung_passes(const Rung& rung, double slo_us = kSloUs);

/// The knee over any set of rungs, in any order. With the rungs sorted by
/// rate, let F be the lowest-rate failing rung and P the rung just below
/// it (every rung below F passes by construction). The crossing is
/// interpolated linearly in (log rate, log p99) between P and F, taking
/// F's p99 as at least the SLO (a rung that failed on errors or backlog
/// growth crosses no later than its own rate). No failing rung: the
/// highest rate offered. No passing rung below F: 0.
double knee_rps(std::vector<Rung> rungs, double slo_us = kSloUs);

/// Whether the open-loop client's pending backlog (requests due but not
/// yet sent) grew within a phase of `duration_s`: the median backlog over
/// the last quarter exceeds the median over the second quarter by more than
/// one SLO's worth of arrivals (rate x SLO, at least 4 requests). `due_s`
/// and `sent_s` are offsets from the phase start, one pair per request.
bool backlog_grew(std::vector<double> due_s, std::vector<double> sent_s,
                  double duration_s, double rate_per_s,
                  double slo_us = kSloUs);

}  // namespace servebench
