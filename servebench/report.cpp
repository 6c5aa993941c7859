#include "report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"

namespace servebench {

namespace {

/// A JSON number with every digit; non-finite values (a failed run's
/// +inf percentile) become the largest finite double so the line parses.
std::string number(double v) {
  if (!std::isfinite(v)) v = v < 0 ? -1.7976931348623157e308
                                   : 1.7976931348623157e308;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += phishinghook::obs::json_escape(s);
  out += '"';
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

}  // namespace

HostFacts HostFacts::collect(const std::string& commit,
                             const std::string& workload, std::uint64_t seed,
                             bool traced) {
  HostFacts h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("g++ ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = SERVEBENCH_BUILD_TYPE;
  h.no_simd = SERVEBENCH_NO_SIMD;
  const char* threads = std::getenv("PHISHINGHOOK_THREADS");
  h.threads_env = threads != nullptr ? threads : "unset";
  h.commit = commit.empty() ? "unknown" : commit;
  h.workload = workload;
  h.seed = seed;
  h.traced = traced;
  return h;
}

std::string HostFacts::json() const {
  return "{\"nproc\": " + std::to_string(nproc) +
         ", \"compiler\": " + quoted(compiler) +
         ", \"build_type\": " + quoted(build_type) +
         ", \"PHISHINGHOOK_NO_SIMD\": " + quoted(no_simd) +
         ", \"PHISHINGHOOK_THREADS\": " + quoted(threads_env) +
         ", \"commit\": " + quoted(commit) +
         ", \"workload\": " + quoted(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (traced ? "1" : "0") + "}";
}

void report(std::ostream& out, const HostFacts& host, const Outcome& outcome,
            bool traced, const std::filesystem::path& results) {
  out << "# host " << host.json() << "\n";
  for (const std::string& note : outcome.notes) out << "# " << note << "\n";
  const auto print = [&](const char* kind, const std::vector<Metric>& list) {
    char line[256];
    for (const Metric& m : list) {
      std::snprintf(line, sizeof(line), "# %s %-32s %16.6g %-9s n=%zu", kind,
                    m.name.c_str(), m.value, m.unit.c_str(), m.samples);
      out << line << "\n";
    }
  };
  print("e2e  ", outcome.end_to_end);
  print("info ", outcome.ungated);
  print("layer", outcome.layers);
  out << "# attempted " << outcome.attempted << " failed " << outcome.failed
      << " correct " << (outcome.correct ? "true" : "false") << "\n";

  if (!results.empty()) {
    std::ofstream file(results);
    file << "{\"host\": " << host.json()
         << ",\n \"correct\": " << (outcome.correct ? "true" : "false")
         << ", \"attempted\": " << outcome.attempted
         << ", \"failed\": " << outcome.failed
         << ",\n \"end_to_end\": " << metrics_json(outcome.end_to_end, true)
         << ",\n \"ungated\": " << metrics_json(outcome.ungated, true)
         << ",\n \"per_layer\": " << metrics_json(outcome.layers, true)
         << ",\n \"notes\": [";
    for (std::size_t i = 0; i < outcome.notes.size(); ++i) {
      file << (i == 0 ? "" : ", ") << quoted(outcome.notes[i]);
    }
    file << "]}\n";
  }

  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": "
      << metrics_json(traced ? outcome.layers : outcome.end_to_end, false)
      << "}" << std::endl;
}

void report_self_times(std::ostream& out, const std::vector<SelfTime>& rows) {
  char line[256];
  out << "# span self time (duration minus the part child spans cover)\n";
  for (const SelfTime& r : rows) {
    std::snprintf(line, sizeof(line),
                  "# span %-22s n=%-8zu total %12.1f us  self %12.1f us  "
                  "self p50 %9.2f us",
                  r.name.c_str(), r.count, r.total_us, r.self_total_us,
                  r.self_p50_us);
    out << line << "\n";
  }
}

}  // namespace servebench
