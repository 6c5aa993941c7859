#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "client.hpp"
#include "decorators.hpp"
#include "knee.hpp"
#include "layers.hpp"
#include "serve/artifact.hpp"
#include "serve/rpc_frontend.hpp"
#include "serve/scoring_engine.hpp"
#include "stream/coordinator.hpp"

namespace servebench {

namespace ph = phishinghook;

namespace {

/// Set-ups per rpc_hot run; setup_s is their median. (The other workloads
/// set up once per pass.)
constexpr std::size_t kSetupRepeats = 5;
/// Addresses per phook_scoreBatch frame (backfill and hot-set warming).
constexpr std::size_t kFrameRows = 64;
/// rpc_hot: latency_p50_us / latency_p99_us are read over one open-loop
/// phase at this rate, lasting this share of the run.
constexpr double kReferenceRate = 2000.0;
constexpr double kReferenceShare = 0.3;
/// rpc_hot: the rate ladder is kLadderBase * sqrt(2)^k, k < kLadderRungs,
/// stopped after two consecutive failing rungs. Each rung lasts
/// seconds / kRungsPerRun, so a ladder that stops near 8k req/s fills
/// the rest of the run.
constexpr double kLadderBase = 1000.0;
constexpr int kLadderRungs = 12;
constexpr double kRungsPerRun = 12.0;
/// rpc_hot: Zipf exponent of the address mix over the hot set.
constexpr double kZipfExponent = 1.0;

/// The serving stack as a user stands it up with the shipped defaults,
/// plus — in the traced run — the timing decorators around the explorer
/// and the detector the engine borrows.
class Stack {
 public:
  Stack(const ph::chain::Explorer& chain, const RunConfig& config) {
    model_ = ph::serve::load_artifact_file(artifact_path(config.dir));
    ph::ml::Scorer* scorer = model_.get();
    if (config.wrap_scorer) {
      wrapped_ = config.wrap_scorer(*scorer);
      scorer = wrapped_.get();
    }
    const ph::chain::Explorer* explorer = &chain;
    if (config.traced) {
      timed_scorer_ = std::make_unique<TimedScorer>(*scorer);
      scorer = timed_scorer_.get();
      timed_explorer_ = std::make_unique<TimedExplorer>(chain);
      explorer = timed_explorer_.get();
    }
    engine_ = std::make_unique<ph::serve::ScoringEngine>(
        *explorer, *scorer, ph::serve::EngineConfig{});
  }

  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void start_rpc() {
    frontend_ = std::make_unique<ph::serve::RpcFrontend>(*engine_,
                                                         ph::net::RpcConfig{});
    frontend_->start(0);
  }

  /// Stops the front end, then drains and joins the engine.
  void stop() {
    if (frontend_) frontend_->stop();
    if (engine_) engine_->shutdown();
  }

  ph::serve::ScoringEngine& engine() { return *engine_; }
  ph::serve::RpcFrontend& frontend() { return *frontend_; }
  std::uint16_t port() const { return frontend_->port(); }
  const TimedScorer* timed_scorer() const { return timed_scorer_.get(); }
  const TimedExplorer* timed_explorer() const {
    return timed_explorer_.get();
  }
  /// Zeroes the decorators' counts, so a pass reads its own work only
  /// (not the set-up's warm-up).
  void reset_decorators() {
    if (timed_scorer_) timed_scorer_->reset();
    if (timed_explorer_) timed_explorer_->reset();
  }

  /// submitted == completed + failed + shed (call after stop()).
  bool accounting_ok() const {
    const ph::serve::ServiceMetrics& m = engine_->metrics();
    return m.requests_submitted.value() ==
           m.requests_completed.value() + m.requests_failed.value() +
               m.requests_shed.value();
  }

 private:
  // Declaration order is destruction order reversed: the front end goes
  // first, the model last.
  std::unique_ptr<ph::core::HistogramAdapter> model_;
  std::unique_ptr<ph::ml::Scorer> wrapped_;
  std::unique_ptr<TimedScorer> timed_scorer_;
  std::unique_ptr<TimedExplorer> timed_explorer_;
  std::unique_ptr<ph::serve::ScoringEngine> engine_;
  std::unique_ptr<ph::serve::RpcFrontend> frontend_;
};

std::string score_body(std::uint64_t id, const std::string& address_hex) {
  std::string body = "{\"jsonrpc\":\"2.0\",\"id\":";
  body += std::to_string(id);
  body += ",\"method\":\"phook_score\",\"params\":[\"";
  body += address_hex;
  body += "\"]}";
  return body;
}

std::string batch_body(std::uint64_t id, const std::string& quoted_list) {
  std::string body = "{\"jsonrpc\":\"2.0\",\"id\":";
  body += std::to_string(id);
  body += ",\"method\":\"phook_scoreBatch\",\"params\":[[";
  body += quoted_list;
  body += "]]}";
  return body;
}

bool verdict_matches(const Verdict& v, const Reference& ref,
                     const std::string& address_hex) {
  if (!v.parsed || v.address != address_hex) return false;
  if (ref.empty_code) return v.status == "empty_code" && v.probability == 0.0;
  return v.status == "ok" && v.probability == ref.probability;
}

/// Checks a phook_scoreBatch response against refs[first, first + count).
/// Returns how many rows failed; `max_engine_us` gets the largest engine
/// latency in the frame.
std::size_t check_batch(const std::string& body, const ChainInputs& chain,
                        const std::vector<std::string>& hex,
                        std::size_t first, std::size_t count,
                        std::vector<std::size_t>& starts,
                        double& max_engine_us, std::uint64_t& trace_id) {
  max_engine_us = 0.0;
  trace_id = 0;
  const std::size_t at = find_result(body);
  if (at == std::string::npos) return count;
  find_verdicts(body, at, starts);
  if (starts.size() != count) return count;
  std::size_t bad = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t end = k + 1 < count ? starts[k + 1] : body.size();
    const Verdict v = scan_verdict(body, starts[k], end);
    if (!verdict_matches(v, chain.refs[first + k], hex[first + k])) ++bad;
    max_engine_us = std::max(max_engine_us, v.latency_us);
    if (k == 0) trace_id = v.trace_id;
  }
  return bad;
}

std::vector<std::string> hex_addresses(const ChainInputs& chain) {
  std::vector<std::string> hex;
  hex.reserve(chain.refs.size());
  for (const Reference& ref : chain.refs) hex.push_back(ref.address.to_hex());
  return hex;
}

/// `"0x..","0x..",...` for refs[first, first + count).
std::string quoted_list(const std::vector<std::string>& hex, std::size_t first,
                        std::size_t count) {
  std::string list;
  for (std::size_t k = 0; k < count; ++k) {
    if (k != 0) list += ',';
    list += '"';
    list += hex[first + k];
    list += '"';
  }
  return list;
}

/// Engine, cache, chain, scorer, thread-pool and process readings of one
/// pass. `ops` is what the pass's per-op ratios divide by.
struct PassReadings {
  double ops = 0.0;
  double wall_s = 0.0;
  double cpu_us = 0.0;        ///< the whole process
  double bench_cpu_us = 0.0;  ///< the benchmark's own threads
  int threads_peak = 0;
  GlobalCounters global;
  ph::serve::CacheStats cache_before;

  /// CPU the serving stack spent: the process's, less that of the
  /// benchmark's client threads and of the thread running the pass.
  double stack_cpu_us() const { return cpu_us - bench_cpu_us; }
};

void put_engine_layers(LayerSet& layers, Stack& stack,
                       const PassReadings& pass) {
  const ph::serve::ServiceMetrics& m = stack.engine().metrics();
  const ph::serve::CacheStats cache = stack.engine().cache_stats();
  layers.put("engine.queue_wait_p50_us", m.stage_queue_wait.quantile(0.5));
  layers.put("engine.queue_wait_p99_us", m.stage_queue_wait.quantile(0.99));
  layers.put("engine.extract_p50_us", m.stage_extract.quantile(0.5));
  layers.put("engine.rows_per_batch", m.mean_batch_occupancy());
  layers.put("engine.latency_p99_us", m.request_latency.quantile(0.99));
  layers.put("engine.failed", static_cast<double>(m.requests_failed.value()));
  layers.put("engine.shed", static_cast<double>(m.requests_shed.value()));
  const double hits =
      static_cast<double>(cache.hits - pass.cache_before.hits);
  const double misses =
      static_cast<double>(cache.misses - pass.cache_before.misses);
  layers.put("cache.hit_ratio", ratio(hits, hits + misses));
  layers.put("cache.evictions", static_cast<double>(cache.evictions));
  layers.put("cache.entries", static_cast<double>(cache.entries));
  if (const TimedExplorer* chain = stack.timed_explorer()) {
    layers.put("chain.get_code_calls_per_op",
               ratio(static_cast<double>(chain->calls()), pass.ops));
    layers.put("chain.get_code_us_per_op", ratio(chain->busy_us(), pass.ops));
  }
  double scorer_rows = 0.0;
  if (const TimedScorer* scorer = stack.timed_scorer()) {
    scorer_rows = static_cast<double>(scorer->rows());
    const double workers =
        static_cast<double>(ph::serve::EngineConfig{}.workers);
    layers.put("scorer.calls", static_cast<double>(scorer->calls()));
    layers.put("scorer.rows_per_call",
               ratio(scorer_rows, static_cast<double>(scorer->calls())));
    layers.put("scorer.us_per_row", ratio(scorer->busy_us(), scorer_rows));
    layers.put("scorer.busy_share",
               ratio(scorer->busy_us(), pass.wall_s * 1e6 * workers));
  }
  layers.put("pool.tasks_per_row", ratio(pass.global.pool_tasks, scorer_rows));
  layers.put("pool.task_p50_us", pool_task_p50_us());
  layers.put("features.bytes_per_row",
             ratio(pass.global.feature_bytes, pass.global.feature_rows));
  layers.put("flat.rows_per_call",
             ratio(pass.global.flat_rows, pass.global.flat_calls));
  layers.put("proc.cpu_us_per_op", ratio(pass.cpu_us, pass.ops));
  layers.put("proc.threads_peak", static_cast<double>(pass.threads_peak));
}

void put_net_layers(LayerSet& layers, Stack& stack,
                    const std::vector<double>& net_self_us) {
  namespace obs = ph::obs;
  obs::MetricsRegistry& reg = stack.frontend().server().metrics_registry();
  obs::LatencyHistogram& dispatch =
      reg.histogram("net_stage_wait_us", obs::label("stage", "dispatch"));
  layers.put("net.dispatch_wait_p50_us", dispatch.quantile(0.5));
  layers.put("net.dispatch_wait_p99_us", dispatch.quantile(0.99));
  layers.put("net.handle_p50_us",
             reg.histogram("net_stage_service_us",
                           obs::label("stage", "handle"))
                 .quantile(0.5));
  layers.put("net.parse_p50_us",
             reg.histogram("net_stage_service_us",
                           obs::label("stage", "parse"))
                 .quantile(0.5));
  layers.put("net.shed",
             static_cast<double>(reg.counter("net_requests_shed").value()));
  layers.put("net.self_p50_us", median(net_self_us));
}

/// Starts a pass's readings (call right before the timed work, on the
/// thread that calls end_pass).
PassReadings begin_pass(Stack& stack) {
  PassReadings pass;
  stack.reset_decorators();
  pass.global = GlobalCounters::read();
  pass.cache_before = stack.engine().cache_stats();
  pass.bench_cpu_us = -thread_cpu_us();
  pass.cpu_us = cpu_time_us();
  pass.wall_s = now_s();
  return pass;
}

/// Closes a pass's readings (call right after the timed work). Client
/// threads add their own CPU time to `bench_cpu_us` themselves.
void end_pass(PassReadings& pass, double ops) {
  pass.wall_s = now_s() - pass.wall_s;
  pass.cpu_us = cpu_time_us() - pass.cpu_us;
  pass.bench_cpu_us += thread_cpu_us();
  pass.global = GlobalCounters::read() - pass.global;
  pass.ops = ops;
}

// ---------------------------------------------------------------------------
// rpc_hot

/// One request of an open-loop phase. Times are offsets from phase start.
struct OpenLoopRecord {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool waited = false;  ///< the client was idle before the due time
  bool ok = false;
  double engine_us = 0.0;
};

/// What the benchmark keeps of one open-loop phase. The per-request
/// records are summarised and dropped, so the client's memory does not
/// grow with the number of phases run and stays out of peak_rss_mb.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int threads_peak = 0;
  double active_s = 0.0;  ///< phase start to its last completion
  double p50_us = 0.0;    ///< over every request, failures counted as +inf
  Rung rung;              ///< the phase read as a ladder rung (holds the p99)
  double net_self_p50_us = 0.0;  ///< client RTT minus engine latency
  double lateness_p99_us = 0.0;  ///< send minus due, idle client only
};

/// Summarises a phase of `duration` seconds at `rate`.
Phase summarize(const std::vector<OpenLoopRecord>& records, double rate,
                double duration) {
  Phase phase;
  std::vector<double> due;
  std::vector<double> sent;
  // Latency runs from the due time, so a backlog the server causes (every
  // connection busy) counts against it. When the client thread was idle
  // before the due time and woke late, the connection was free and the
  // delay is the client's own: that request is timed from its send, and
  // the overshoot is reported as client lateness instead.
  std::vector<double> latency;  // +inf when failed
  std::vector<double> net_self;
  std::vector<double> lateness;
  for (const OpenLoopRecord& r : records) {
    due.push_back(r.due);
    sent.push_back(r.sent);
    const double start = r.waited ? r.sent : r.due;
    latency.push_back(r.ok ? (r.done - start) * 1e6
                           : std::numeric_limits<double>::infinity());
    if (r.ok) net_self.push_back((r.done - r.sent) * 1e6 - r.engine_us);
    if (r.waited) lateness.push_back((r.sent - r.due) * 1e6);
    if (!r.ok) ++phase.failed;
    phase.active_s = std::max(phase.active_s, r.done);
  }
  phase.attempted = records.size();
  phase.net_self_p50_us = median(std::move(net_self));
  phase.lateness_p99_us = quantile(std::move(lateness), 0.99);
  phase.p50_us = quantile(latency, 0.5);
  phase.rung.rate_per_s = rate;
  phase.rung.attempted = phase.attempted;
  phase.rung.failed = phase.failed;
  phase.rung.p99_us = quantile(std::move(latency), 0.99);
  phase.rung.backlog_grew =
      backlog_grew(std::move(due), std::move(sent), duration, rate);
  return phase;
}

struct HotSet {
  const ChainInputs* chain = nullptr;
  std::vector<std::string> hex;
  std::vector<std::size_t> by_rank;  ///< Zipf rank -> refs index
  Zipf zipf{1, kZipfExponent};
};

HotSet make_hot_set(const ChainInputs& chain, std::uint64_t seed) {
  HotSet hot;
  hot.chain = &chain;
  hot.hex = hex_addresses(chain);
  hot.by_rank.resize(chain.refs.size());
  std::iota(hot.by_rank.begin(), hot.by_rank.end(), std::size_t{0});
  SplitMix rng(seed ^ 0x5eedf00dull);
  for (std::size_t i = hot.by_rank.size(); i > 1; --i) {
    std::swap(hot.by_rank[i - 1], hot.by_rank[rng.below(i)]);
  }
  hot.zipf = Zipf(chain.refs.size(), kZipfExponent);
  return hot;
}

/// Scores every hot address once, in 64-address frames, so the timed
/// phases see a warm cache. Returns the number of wrong verdicts.
std::size_t warm_hot_set(HttpClient& client, std::uint16_t port,
                         const HotSet& hot, std::uint64_t& next_id) {
  if (!client.connected() && !client.connect(port)) return hot.hex.size();
  std::size_t bad = 0;
  std::string body;
  std::vector<std::size_t> starts;
  for (std::size_t first = 0; first < hot.hex.size(); first += kFrameRows) {
    const std::size_t count = std::min(kFrameRows, hot.hex.size() - first);
    int status = 0;
    double engine_us = 0.0;
    std::uint64_t trace_id = 0;
    if (!client.send_post(
            batch_body(next_id++, quoted_list(hot.hex, first, count))) ||
        !client.read_response(body, status) || status != 200) {
      bad += count;
      client.connect(port);
      continue;
    }
    bad += check_batch(body, *hot.chain, hot.hex, first, count, starts,
                       engine_us, trace_id);
  }
  return bad;
}

/// One open-loop phase at `rate` for `duration` seconds: a seeded Poisson
/// schedule of Zipf-drawn addresses, served by the client pool in arrival
/// order (each connection takes the next due request when it is free).
Phase run_open_loop(std::vector<HttpClient>& clients, std::uint16_t port,
                    const HotSet& hot, double rate, double duration,
                    SplitMix& rng, std::uint64_t& next_id) {
  const std::vector<double> offsets = poisson_schedule(rate, duration, rng);
  std::vector<std::size_t> picks(offsets.size());
  for (std::size_t& p : picks) p = hot.by_rank[hot.zipf.draw(rng)];
  std::vector<OpenLoopRecord> records(offsets.size());
  const std::uint64_t id_base = next_id;
  next_id += offsets.size();

  const double t0 = now_s() + 0.002;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (HttpClient& client : clients) {
    threads.emplace_back([&, t0] {
      std::string body;
      std::string response;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= offsets.size()) break;
        OpenLoopRecord& rec = records[i];
        const double due = t0 + offsets[i];
        rec.waited = now_s() < due;
        sleep_until_s(due);
        const double sent = now_s();
        const std::uint64_t id = id_base + i;
        body = score_body(id, hot.hex[picks[i]]);
        int status = 0;
        const bool transport = client.send_post(body) &&
                               client.read_response(response, status);
        const double done = now_s();
        Verdict v;
        if (transport && status == 200) {
          const std::size_t at = find_result(response);
          if (at != std::string::npos) {
            v = scan_verdict(response, at, response.size());
          }
        }
        rec.due = offsets[i];
        rec.sent = sent - t0;
        rec.done = done - t0;
        rec.ok = transport && status == 200 &&
                 verdict_matches(v, hot.chain->refs[picks[i]],
                                 hot.hex[picks[i]]);
        rec.engine_us = v.latency_us;
        if (!transport) client.connect(port);
        if (SpanLog::active() != nullptr) {
          record_span("client.request", due * 1e6, done * 1e6, 0, id,
                      v.trace_id);
          record_span("client.queued", due * 1e6, sent * 1e6, id);
          record_span("client.exchange", sent * 1e6, done * 1e6, id, 0,
                      v.trace_id);
        }
      }
    });
  }
  // Sample the thread count while the phase runs.
  sleep_until_s(t0 + std::min(duration * 0.5, 0.2));
  const int threads_now = thread_count();
  for (std::thread& t : threads) t.join();
  Phase phase = summarize(records, rate, duration);
  phase.threads_peak = threads_now;
  return phase;
}

/// Client connections (and client threads): at most 4, at most nproc.
std::size_t client_connections() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<std::size_t>(std::clamp<long>(n, 1, 4));
}

Outcome run_rpc_hot(const RunConfig& config, const ChainInputs& chain) {
  Outcome out;
  const HotSet hot = make_hot_set(chain, config.seed);
  std::uint64_t next_id = 1;

  // Set-up: artifact load -> engine -> front end -> warm hot set, run
  // kSetupRepeats times; the last stack serves the timed phases.
  std::vector<double> setups;
  std::size_t warm_bad = 0;
  std::unique_ptr<Stack> stack;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    stack.reset();
    const double t0 = now_s();
    stack = std::make_unique<Stack>(*chain.explorer, config);
    stack->start_rpc();
    HttpClient warm;
    warm_bad += warm_hot_set(warm, stack->port(), hot, next_id);
    setups.push_back(now_s() - t0);
  }
  std::vector<HttpClient> clients(client_connections());
  for (HttpClient& c : clients) {
    if (!c.connect(stack->port())) {
      throw std::runtime_error("cannot connect to the RPC front end");
    }
  }

  // Timed phases: the reference phase, then the ladder.
  SplitMix rng(config.seed * 0x2545f4914f6cdd1dull + 1);
  PassReadings pass = begin_pass(*stack);
  const Phase reference =
      run_open_loop(clients, stack->port(), hot, kReferenceRate,
                    kReferenceShare * config.seconds, rng, next_id);
  const double rung_s = config.seconds / kRungsPerRun;
  std::vector<Phase> phases;
  std::vector<Rung> rungs;
  int failing_in_a_row = 0;
  for (int k = 0; k < kLadderRungs && failing_in_a_row < 2; ++k) {
    phases.push_back(run_open_loop(clients, stack->port(), hot,
                                   kLadderBase * std::pow(2.0, k / 2.0),
                                   rung_s, rng, next_id));
    rungs.push_back(phases.back().rung);
    failing_in_a_row = rung_passes(rungs.back()) ? 0 : failing_in_a_row + 1;
  }
  phases.push_back(reference);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int threads_peak = 0;
  std::vector<double> net_self;
  std::vector<double> lateness;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
    threads_peak = std::max(threads_peak, p.threads_peak);
    net_self.push_back(p.net_self_p50_us);
    lateness.push_back(p.lateness_p99_us);
  }
  end_pass(pass, static_cast<double>(attempted));
  pass.threads_peak = threads_peak;

  for (HttpClient& c : clients) c.close();
  stack->stop();
  const bool accounting = stack->accounting_ok();

  // End-to-end metrics. Reference latency is pooled over every request of
  // the reference phase.
  out.add_e2e("setup_s", median(setups), "s", setups.size());
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  out.add_e2e("knee_rps", knee_rps(rungs), "1/s", rungs.size());
  out.add_e2e("latency_p50_us", reference.p50_us, "us", reference.attempted);
  out.add_ungated("latency_p99_us", reference.rung.p99_us, "us",
                  reference.attempted);
  // Completed verdicts per second of the reference phase: the offered
  // 2,000 req/s unless the stack falls behind it.
  out.add_e2e("rows_per_s",
              ratio(static_cast<double>(reference.attempted - reference.failed),
                    reference.active_s),
              "1/s", reference.attempted);

  out.attempted = attempted;
  out.failed = failed + warm_bad;
  out.correct = out.failed == 0 && accounting;
  if (!accounting) out.notes.push_back("engine accounting identity broken");
  if (warm_bad != 0) {
    out.notes.push_back("hot-set warm-up: " + std::to_string(warm_bad) +
                        " wrong verdicts");
  }
  char line[256];
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    std::snprintf(line, sizeof(line),
                  "rung %2zu rate %8.1f/s n %6llu failed %llu p99 %10.1f us "
                  "backlog_grew %d -> %s",
                  i, r.rate_per_s, static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed), r.p99_us,
                  r.backlog_grew ? 1 : 0, rung_passes(r) ? "pass" : "FAIL");
    out.notes.push_back(line);
  }

  // Per-layer metrics (net self time and lateness: median over phases).
  LayerSet layers;
  put_engine_layers(layers, *stack, pass);
  put_net_layers(layers, *stack, net_self);
  layers.put("client.lateness_p99_us", median(lateness));
  layers.finish(out);
  return out;
}

}  // namespace

Outcome run_rpc_backfill(const RunConfig& config, const ChainInputs& chain) {
  Outcome out;
  const std::vector<std::string> hex = hex_addresses(chain);
  const std::size_t rows = chain.refs.size();
  const std::size_t frames = (rows + kFrameRows - 1) / kFrameRows;
  std::vector<std::string> lists(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    const std::size_t first = f * kFrameRows;
    lists[f] = quoted_list(hex, first, std::min(kFrameRows, rows - first));
  }

  std::vector<double> setups;
  std::vector<double> frame_latency;  // every frame of every timed pass
  double busy_s = 0.0;                // summed timed-pass wall time
  double stack_cpu_us = 0.0;          // summed timed-pass stack CPU
  std::size_t timed_passes = 0;
  std::vector<double> turnaround;
  LayerSet layers;
  std::uint64_t next_id = 1;
  bool accounting = true;
  const double deadline = now_s() + config.seconds;

  // Each pass serves the whole segment against a fresh, cold stack. Pass 0
  // warms the process (allocator, page cache, branch history): it is
  // checked like every pass but kept out of the figures.
  for (int p = 0; p < 2 || (now_s() < deadline && p < 64); ++p) {
    const bool timed = p > 0;
    const double t0 = now_s();
    Stack stack(*chain.explorer, config);
    stack.start_rpc();
    setups.push_back(now_s() - t0);

    std::vector<HttpClient> clients(client_connections());
    for (HttpClient& c : clients) {
      if (!c.connect(stack.port())) {
        throw std::runtime_error("cannot connect to the RPC front end");
      }
    }
    const std::uint64_t id_base = next_id;
    next_id += frames;
    std::vector<double> latency(frames, 0.0);
    std::vector<double> self(frames, 0.0);
    std::vector<std::size_t> bad(frames, 0);
    std::vector<std::vector<double>> gaps(clients.size());
    std::vector<double> client_cpu_us(clients.size(), 0.0);
    std::atomic<std::size_t> next{0};
    std::atomic<int> threads_peak{0};
    PassReadings pass = begin_pass(stack);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        HttpClient& client = clients[c];
        std::string body;
        std::string response;
        std::vector<std::size_t> starts;
        double last_done = 0.0;
        const double cpu0 = thread_cpu_us();
        for (;;) {
          const std::size_t f = next.fetch_add(1, std::memory_order_relaxed);
          if (f >= frames) break;
          if (f == frames / 2) threads_peak.store(thread_count());
          const std::size_t first = f * kFrameRows;
          const std::size_t count = std::min(kFrameRows, rows - first);
          const std::uint64_t id = id_base + f;
          body = batch_body(id, lists[f]);
          const double sent = now_s();
          if (last_done != 0.0) gaps[c].push_back((sent - last_done) * 1e6);
          int status = 0;
          const bool transport = client.send_post(body) &&
                                 client.read_response(response, status);
          const double done = now_s();
          last_done = done;
          double engine_us = 0.0;
          std::uint64_t trace_id = 0;
          if (transport && status == 200) {
            bad[f] = check_batch(response, chain, hex, first, count, starts,
                                 engine_us, trace_id);
          } else {
            bad[f] = count;
            client.connect(stack.port());
          }
          latency[f] = (done - sent) * 1e6;
          self[f] = latency[f] - engine_us;
          if (SpanLog::active() != nullptr) {
            record_span("client.frame", sent * 1e6, done * 1e6, 0, id,
                        trace_id);
          }
        }
        client_cpu_us[c] = thread_cpu_us() - cpu0;
      });
    }
    for (std::thread& t : threads) t.join();
    end_pass(pass, static_cast<double>(rows));
    for (const double us : client_cpu_us) pass.bench_cpu_us += us;
    pass.threads_peak = threads_peak.load();
    for (HttpClient& c : clients) c.close();
    stack.stop();
    accounting = accounting && stack.accounting_ok() &&
                 stack.engine().metrics().requests_submitted.value() == rows;

    const std::size_t failed_rows =
        std::accumulate(bad.begin(), bad.end(), std::size_t{0});
    out.attempted += rows;
    out.failed += failed_rows;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "pass %d%s: %zu rows in %zu frames, %.1f rows/s, "
                  "%.2f stack CPU us/row, setup %.4f s, frame p50 %.0f us "
                  "p99 %.0f us",
                  p, timed ? "" : " (warm-up)", rows, frames,
                  static_cast<double>(rows) / pass.wall_s,
                  pass.stack_cpu_us() / static_cast<double>(rows),
                  setups.back(), quantile(latency, 0.5),
                  quantile(latency, 0.99));
    out.notes.push_back(line);
    if (!timed) continue;
    ++timed_passes;
    busy_s += pass.wall_s;
    stack_cpu_us += pass.stack_cpu_us();
    for (std::size_t f = 0; f < frames; ++f) {
      frame_latency.push_back(bad[f] != 0
                                  ? std::numeric_limits<double>::infinity()
                                  : latency[f]);
    }
    for (const std::vector<double>& g : gaps) {
      turnaround.insert(turnaround.end(), g.begin(), g.end());
    }
    put_engine_layers(layers, stack, pass);
    put_net_layers(layers, stack, self);
  }

  // Totals over the timed passes; frame latency pooled over their frames.
  const std::size_t timed_rows = rows * timed_passes;
  out.add_e2e("setup_s", median(setups), "s", setups.size());
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  out.add_e2e("cpu_us_per_row",
              ratio(stack_cpu_us, static_cast<double>(timed_rows)), "us",
              timed_rows);
  out.add_ungated("rows_per_s",
                  ratio(static_cast<double>(timed_rows), busy_s), "1/s",
                  timed_rows);
  out.add_ungated("latency_p50_us", quantile(frame_latency, 0.5), "us",
                  frame_latency.size());
  out.add_ungated("latency_p99_us", quantile(frame_latency, 0.99), "us",
                  frame_latency.size());
  out.correct = out.failed == 0 && accounting;
  if (!accounting) out.notes.push_back("engine accounting identity broken");
  // Closed loop: the client's own lateness is its turnaround between a
  // response and that connection's next request.
  layers.put("client.lateness_p99_us", quantile(turnaround, 0.99));
  layers.finish(out);
  return out;
}

namespace {

Outcome run_stream_follow(const RunConfig& config) {
  Outcome out;
  std::vector<double> setups;
  // Totals and per-pass latencies of the timed passes.
  std::uint64_t completed = 0;
  double busy_s = 0.0;
  double stack_cpu_us = 0.0;
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t latency_samples = 0;
  LayerSet layers;
  const double deadline = now_s() + config.seconds;

  // Pass 0 warms the process and is kept out of the figures (it is checked
  // like every pass).
  for (int p = 0; p < 2 || (now_s() < deadline && p < 64); ++p) {
    const bool timed = p > 0;
    ph::synth::MinerConfig miner;
    miner.seed = miner_seed(config.seed);
    ph::stream::LiveChain live(miner);
    // The follower starts at the head of a fresh chain and then finds a
    // pre-mined backlog in front of it, so the generator always finds a
    // fresh deployment when its coin asks for one and the re-query share
    // is the seeded coin's, not a race between the miner and the
    // generator. The miner adds max_blocks more live.
    const std::uint64_t backlog_start = live.head_block();
    for (std::uint64_t b = 0; b < config.shape.stream_backlog_blocks; ++b) {
      live.mine_next_block();
    }

    const double t0 = now_s();
    Stack stack(live.explorer(), config);
    ph::stream::StreamConfig stream;
    stream.paced = false;
    stream.follower.start_block = backlog_start;
    stream.max_blocks = config.shape.stream_blocks;
    stream.max_requests = config.shape.stream_requests;
    stream.arrivals.seed = config.seed;
    auto coordinator = std::make_unique<ph::stream::StreamCoordinator>(
        live, stack.engine(), stream);
    setups.push_back(now_s() - t0);

    PassReadings pass = begin_pass(stack);
    coordinator->start();
    int threads_peak = 0;
    double next_sample = now_s();
    while (!coordinator->finished()) {
      if (now_s() >= next_sample) {
        threads_peak = std::max(threads_peak, thread_count());
        next_sample += 0.05;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const double run_s = now_s() - pass.wall_s;
    coordinator->drain();
    const ph::stream::StreamReport report = coordinator->report();
    end_pass(pass, static_cast<double>(report.submitted));
    pass.wall_s = run_s;
    pass.threads_peak = threads_peak;

    const bool ok = report.accounting_ok() && report.failed == 0 &&
                    report.shed == 0 &&
                    report.submitted == config.shape.stream_requests;
    out.attempted += report.submitted;
    out.failed += report.failed + report.shed;
    if (!ok) {
      out.correct = false;
      out.notes.push_back(
          "pass " + std::to_string(p) + ": submitted " +
          std::to_string(report.submitted) + " completed " +
          std::to_string(report.completed) + " failed " +
          std::to_string(report.failed) + " shed " +
          std::to_string(report.shed) + " (expected " +
          std::to_string(config.shape.stream_requests) + " submitted)");
    }
    const ph::obs::LatencyHistogram& latency =
        stack.engine().metrics().request_latency;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "pass %d%s: %llu submitted, %llu completed in %.3f s "
                  "(%.1f rows/s, %.2f stack CPU us/row), requery %llu, "
                  "setup %.4f s, p50 %.0f us p99 %.0f us",
                  p, timed ? "" : " (warm-up)",
                  static_cast<unsigned long long>(report.submitted),
                  static_cast<unsigned long long>(report.completed), run_s,
                  static_cast<double>(report.completed) / run_s,
                  ratio(pass.stack_cpu_us(),
                        static_cast<double>(report.completed)),
                  static_cast<unsigned long long>(report.requery_submits),
                  setups.back(), latency.quantile(0.5),
                  latency.quantile(0.99));
    out.notes.push_back(line);
    if (timed) {
      completed += report.completed;
      busy_s += run_s;
      stack_cpu_us += pass.stack_cpu_us();
      p50.push_back(latency.quantile(0.5));
      p99.push_back(latency.quantile(0.99));
      latency_samples += latency.count();

      put_engine_layers(layers, stack, pass);
      layers.put("stream.addr_queue_wait_p50_us",
                 coordinator->registry()
                     .histogram("stream_stage_wait_us",
                                ph::obs::label("stage", "addr_queue"))
                     .quantile(0.5));
      layers.put("stream.dedup_hit_ratio", report.follower.dedup_hit_rate());
      layers.put("stream.starved_arrivals",
                 static_cast<double>(report.starved_arrivals));
      layers.put("stream.requery_share",
                 ratio(static_cast<double>(report.requery_submits),
                       static_cast<double>(report.submitted)));
    }
    coordinator.reset();
    stack.stop();
    if (!stack.accounting_ok()) {
      out.correct = false;
      out.notes.push_back("engine accounting identity broken");
    }
  }

  out.add_e2e("setup_s", median(setups), "s", setups.size());
  out.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  out.add_e2e("cpu_us_per_row",
              ratio(stack_cpu_us, static_cast<double>(completed)), "us",
              completed);
  out.add_ungated("rows_per_s", ratio(static_cast<double>(completed), busy_s),
                  "1/s", completed);
  // Engine-recorded submit-to-completion latency: median over passes of
  // each pass's quantile (each over its 100k requests).
  out.add_ungated("latency_p50_us", median(p50), "us", latency_samples);
  out.add_ungated("latency_p99_us", median(p99), "us", latency_samples);
  out.correct = out.correct && out.failed == 0;
  layers.finish(out);
  return out;
}

}  // namespace

Outcome run_workload(const RunConfig& config, const ChainInputs& chain) {
  if (config.workload == "rpc_hot") return run_rpc_hot(config, chain);
  if (config.workload == "rpc_backfill") return run_rpc_backfill(config, chain);
  if (config.workload == "stream_follow") return run_stream_follow(config);
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace servebench
