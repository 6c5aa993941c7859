// servebench: the serving benchmark's program. run.py builds it and calls it
// twice per measurement:
//
//   servebench gen --workload W --seed N --dir D
//       makes the workload's inputs from the seed (detector artifact,
//       reference verdicts) in its own process
//   servebench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                  [--spans FILE] [--results FILE] [--commit SHA]
//       stands the stack up, drives it for S seconds, checks every verdict
//       and prints the metrics; the last stdout line is the JSON result.
//       Exits 1 when any verdict or accounting check fails.
//
// --trace 1 measures twice, S/2 seconds each: the bare stack (its
// end-to-end numbers are printed as notes), then the stack with the timing
// decorators and client spans, whose per-layer metrics are the result. The
// difference between the two is reported as trace.overhead_share.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "inputs.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace servebench;

/// At most this many spans are kept in memory (the rest are counted).
constexpr std::size_t kSpanCapacity = 1 << 18;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string opt(const std::map<std::string, std::string>& flags,
                const std::string& key) {
  const auto it = flags.find(key);
  return it == flags.end() ? std::string() : it->second;
}

/// How much worse the traced half reads than the bare one, as a share of
/// the bare figure: knee_rps on rpc_hot, the stack's CPU per verdict on the
/// other workloads.
double overhead_share(const Outcome& bare, const Outcome& traced,
                      const std::string& workload) {
  const bool hot = workload == "rpc_hot";
  const Metric* b = bare.find_e2e(hot ? "knee_rps" : "cpu_us_per_row");
  const Metric* t = traced.find_e2e(hot ? "knee_rps" : "cpu_us_per_row");
  if (b == nullptr || t == nullptr) return 0.0;
  return hot ? ratio(b->value - t->value, b->value)
             : ratio(t->value - b->value, b->value);
}

int run(const std::map<std::string, std::string>& flags) {
  RunConfig config;
  config.workload = need(flags, "workload");
  config.seed = std::stoull(need(flags, "seed"));
  config.seconds = std::stod(need(flags, "seconds"));
  config.dir = need(flags, "dir");
  config.shape = shape_of(config.workload);
  const bool traced = need(flags, "trace") == "1";
  const std::string spans_path = opt(flags, "spans");

  ChainInputs chain;
  if (config.shape.chain_blocks != 0) {
    chain = load_chain_inputs(config.seed, config.dir, config.shape);
  }

  Outcome outcome;
  if (!traced) {
    outcome = run_workload(config, chain);
  } else {
    config.seconds /= 2.0;
    const Outcome bare = run_workload(config, chain);
    SpanLog log(kSpanCapacity);
    SpanLog::activate(&log);
    config.traced = true;
    outcome = run_workload(config, chain);
    SpanLog::activate(nullptr);

    for (Metric& m : outcome.layers) {
      if (m.name == "trace.overhead_share") {
        m.value = overhead_share(bare, outcome, config.workload);
        m.samples = 2;
      }
    }
    for (const Metric& m : bare.end_to_end) {
      const Metric* t = outcome.find_e2e(m.name);
      outcome.notes.push_back("untraced " + m.name + " " +
                              std::to_string(m.value) + " " + m.unit +
                              " | traced " +
                              std::to_string(t != nullptr ? t->value : 0.0));
    }
    outcome.correct = outcome.correct && bare.correct;
    outcome.attempted += bare.attempted;
    outcome.failed += bare.failed;
    report_self_times(std::cout, SpanLog::self_times(log.collect()));
    if (!spans_path.empty()) {
      log.write_json(spans_path);
      std::cout << "# spans written to " << spans_path << " ("
                << log.dropped() << " dropped)\n";
    }
  }

  const HostFacts host = HostFacts::collect(opt(flags, "commit"),
                                            config.workload, config.seed,
                                            traced);
  report(std::cout, host, outcome, traced, opt(flags, "results"));
  return outcome.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: servebench gen|run ...");
    const std::string mode = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (mode == "gen") {
      generate_inputs(std::stoull(need(flags, "seed")), need(flags, "dir"),
                      shape_of(need(flags, "workload")));
      return 0;
    }
    if (mode == "run") return run(flags);
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
