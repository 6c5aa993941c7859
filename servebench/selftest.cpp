// The benchmark's own tests: they show that its gates can fail.
//
//   servebench_selftest WORK_DIR
//
// * The verdict check trips on rpc_backfill when a decorator moves one
//   scored row by one ulp, and passes on the bare detector.
// * The knee calculation on synthetic rungs: all pass, all fail,
//   interpolation, failures counted as misses, and a growing backlog.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include "decorators.hpp"
#include "inputs.hpp"
#include "knee.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

using namespace servebench;

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

Rung rung(double rate, double p99_us, std::uint64_t attempted = 1000,
          std::uint64_t failed = 0, bool grew = false) {
  Rung r;
  r.rate_per_s = rate;
  r.p99_us = p99_us;
  r.attempted = attempted;
  r.failed = failed;
  r.backlog_grew = grew;
  return r;
}

void knee_all_pass() {
  CHECK(knee_rps({rung(1000, 400), rung(1414.2, 450), rung(2000, 600)}) ==
        2000.0);
}

void knee_all_fail() {
  CHECK(knee_rps({rung(1000, 2 * kSloUs), rung(1414.2, 4 * kSloUs)}) == 0.0);
  CHECK(knee_rps({}) == 0.0);
}

void knee_interpolates_in_log_log() {
  // log(SLO / (SLO/5)) / log(5 SLO / (SLO/5)) = 1/2 of the way in log rate.
  const double knee =
      knee_rps({rung(1414.2, 5 * kSloUs), rung(1000, kSloUs / 5)});
  CHECK(std::fabs(knee - 1000.0 * std::sqrt(1.4142)) < 0.5);
  // A pass above the first failure does not lift the knee.
  CHECK(knee_rps({rung(1000, kSloUs / 5), rung(1414.2, 5 * kSloUs),
                  rung(2000, 900)}) == knee);
}

void failures_count_as_misses() {
  const double inf = std::numeric_limits<double>::infinity();
  // A rung's p99 is pooled over its requests: under 1 % of misses leaves
  // it finite, more put it at +inf.
  std::vector<double> latencies(1000, 100.0);
  for (int i = 0; i < 9; ++i) latencies[i * 100] = inf;
  CHECK(quantile(latencies, 0.99) < inf);
  for (int i = 0; i < 20; ++i) latencies[i * 50] = inf;
  CHECK(std::isinf(quantile(latencies, 0.99)));
  // More than 0.1 % failed fails the rung even with a fast p99.
  CHECK(rung_passes(rung(1000, 100, 1000, 1)));
  CHECK(!rung_passes(rung(1000, 100, 1000, 2)));
  // A failing rung whose tail is all misses puts the knee at the last
  // passing rate.
  CHECK(knee_rps({rung(1000, 800),
                  rung(1414.2, std::numeric_limits<double>::infinity(), 1000,
                       50)}) == 1000.0);
}

void growing_backlog_fails_the_rung() {
  const double rate = 2000.0;
  const double duration = 1.0;
  std::vector<double> due;
  std::vector<double> on_time;
  std::vector<double> falling_behind;
  for (int i = 0; i < 2000; ++i) {
    due.push_back(i / rate);
    on_time.push_back(i / rate + 1e-4);
    falling_behind.push_back(i / (0.8 * rate));  // served at 80 % of arrivals
  }
  CHECK(!backlog_grew(due, on_time, duration, rate));
  CHECK(backlog_grew(due, falling_behind, duration, rate));
  // A rung that failed only on backlog growth still bounds the knee.
  const double knee =
      knee_rps({rung(1000, 800), rung(1414.2, 900, 1000, 0, true)});
  CHECK(knee > 1000.0 && knee <= 1414.2);
  CHECK(!rung_passes(rung(1414.2, 900, 1000, 0, true)));
}

void backfill_check_trips_on_a_perturbed_row(
    const std::filesystem::path& work) {
  RunConfig config;
  config.workload = "rpc_backfill";
  config.seed = 3;
  config.seconds = 0.0;  // the warm-up pass and one timed pass
  config.dir = work / "backfill";
  config.shape.chain_blocks = 300;
  generate_inputs(config.seed, config.dir, config.shape);
  const ChainInputs chain =
      load_chain_inputs(config.seed, config.dir, config.shape);

  const Outcome bare = run_rpc_backfill(config, chain);
  CHECK(bare.correct);
  CHECK(bare.failed == 0);
  // Both passes are checked, the warm-up one too.
  CHECK(bare.attempted == 2 * chain.refs.size());

  config.wrap_scorer = [](phishinghook::ml::Scorer& inner) {
    return std::unique_ptr<phishinghook::ml::Scorer>(
        std::make_unique<PerturbingScorer>(inner));
  };
  const Outcome perturbed = run_rpc_backfill(config, chain);
  CHECK(!perturbed.correct);
  CHECK(perturbed.failed >= 1);
  std::printf("# perturbed backfill: %llu of %llu rows failed\n",
              static_cast<unsigned long long>(perturbed.failed),
              static_cast<unsigned long long>(perturbed.attempted));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: servebench_selftest WORK_DIR\n");
    return 2;
  }
  knee_all_pass();
  knee_all_fail();
  knee_interpolates_in_log_log();
  failures_count_as_misses();
  growing_backlog_fails_the_rung();
  backfill_check_trips_on_a_perturbed_row(argv[1]);
  std::printf("servebench_selftest: %s (%d failures)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
