#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"  // json_escape

namespace phishinghook::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Thread-local cache of this thread's ring; invalidated when the tracer
/// bumps its generation (enable/clear rebuild the rings).
struct RingCache {
  const void* tracer = nullptr;
  std::uint64_t generation = 0;
  void* ring = nullptr;
};

// Destination of the env-var-gated at-exit flush.
std::string& trace_path_storage() {
  static std::string* path = new std::string();
  return *path;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();  // leaked: at-exit flush still needs it
    const char* path = std::getenv("PHISHINGHOOK_TRACE");
    if (path != nullptr && *path != '\0') {
      trace_path_storage() = path;
      t->enable();
      std::atexit([] {
        Tracer::global().write_to_file(trace_path_storage());
      });
    }
    return t;
  }();
  return *tracer;
}

void Tracer::enable(std::size_t ring_capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = round_up_pow2(std::max<std::size_t>(1, ring_capacity));
  rings_.clear();
  next_tid_ = 1;
  dropped_exported_ = 0;
  generation_.fetch_add(1, std::memory_order_release);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
  next_tid_ = 1;
  dropped_exported_ = 0;
  generation_.fetch_add(1, std::memory_order_release);
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

double Tracer::now_us() const {
  return static_cast<double>(steady_now_ns() -
                             epoch_ns_.load(std::memory_order_relaxed)) *
         1e-3;
}

Tracer::Ring& Tracer::ring_for_this_thread() {
  thread_local RingCache cache;
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (cache.tracer != this || cache.generation != generation ||
      cache.ring == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::make_unique<Ring>(capacity_, next_tid_++));
    cache.ring = rings_.back().get();
    cache.tracer = this;
    cache.generation = generation;
  }
  return *static_cast<Ring*>(cache.ring);
}

void Tracer::record(const char* name, const char* detail, double start_us) {
  if (!enabled()) return;  // disabled mid-span: drop
  const double end_us = now_us();
  Ring& ring = ring_for_this_thread();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  Event& event = ring.slots[head & (ring.slots.size() - 1)];

  std::size_t n = 0;
  for (; n < kMaxNameLength && name[n] != '\0'; ++n) event.name[n] = name[n];
  if (detail != nullptr && n + 1 < kMaxNameLength) {
    event.name[n++] = ':';
    for (std::size_t d = 0; n < kMaxNameLength && detail[d] != '\0'; ++d) {
      event.name[n++] = detail[d];
    }
  }
  event.name[n] = '\0';
  event.ph = 'X';
  event.ts_us = start_us;
  event.dur_us = end_us - start_us;
  event.id = 0;
  // Publishes the slot: the exporter acquires head and reads only below it.
  ring.head.store(head + 1, std::memory_order_release);
}

void Tracer::record_event(char ph, const char* name, std::uint64_t id,
                          double ts_us, double dur_us) {
  if (!enabled()) return;
  Ring& ring = ring_for_this_thread();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  Event& event = ring.slots[head & (ring.slots.size() - 1)];
  std::size_t n = 0;
  for (; n < kMaxNameLength && name[n] != '\0'; ++n) event.name[n] = name[n];
  event.name[n] = '\0';
  event.ph = ph;
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.id = id;
  ring.head.store(head + 1, std::memory_order_release);
}

void Tracer::async_begin(const char* name, std::uint64_t id, double ts_us) {
  record_event('b', name, id, ts_us);
}

void Tracer::async_end(const char* name, std::uint64_t id, double ts_us) {
  record_event('e', name, id, ts_us);
}

void Tracer::flow_start(std::uint64_t id) {
  record_event('s', "req", id, now_us());
}

void Tracer::flow_step(std::uint64_t id) {
  record_event('t', "req", id, now_us());
}

void Tracer::flow_finish(std::uint64_t id) {
  record_event('f', "req", id, now_us());
}

std::uint64_t Tracer::events_buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += std::min<std::uint64_t>(
        ring->head.load(std::memory_order_acquire), ring->slots.size());
  }
  return total;
}

std::uint64_t Tracer::events_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > ring->slots.size()) dropped += head - ring->slots.size();
  }
  return dropped;
}

void Tracer::export_metrics(MetricsRegistry& registry) const {
  std::uint64_t buffered = 0;
  std::uint64_t dropped_delta = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t dropped = 0;
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      buffered += std::min<std::uint64_t>(head, ring->slots.size());
      if (head > ring->slots.size()) dropped += head - ring->slots.size();
    }
    // The counter delta is computed under the same lock that enable()/
    // clear() reset dropped_exported_ under, so it can never go negative.
    if (dropped > dropped_exported_) {
      dropped_delta = dropped - dropped_exported_;
      dropped_exported_ = dropped;
    }
  }
  registry.gauge("trace_events_buffered").set(static_cast<double>(buffered));
  registry.gauge("trace_enabled").set(enabled() ? 1.0 : 0.0);
  registry.counter("trace_events_dropped_total").inc(dropped_delta);
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  struct Row {
    const Event* event;
    std::uint32_t tid;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ring : rings_) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      const std::uint64_t capacity = ring->slots.size();
      const std::uint64_t count = std::min(head, capacity);
      for (std::uint64_t i = head - count; i < head; ++i) {
        rows.push_back({&ring->slots[i & (capacity - 1)], ring->tid});
      }
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      // Stable tiebreak: an async begin sorts before its end at equal ts.
      return a.event->ts_us != b.event->ts_us
                 ? a.event->ts_us < b.event->ts_us
                 : a.event->ph < b.event->ph;
    });
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char id_hex[24];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out << ',';
      const Event& event = *rows[i].event;
      switch (event.ph) {
        case 'b':
        case 'e':
          // Async slice boundary: (cat, id, name) pairs b with e; one id =
          // one request lane, regardless of the recording thread.
          std::snprintf(id_hex, sizeof(id_hex), "0x%llx",
                        static_cast<unsigned long long>(event.id));
          out << "{\"name\":\"" << json_escape(event.name)
              << "\",\"cat\":\"phook.req\",\"ph\":\"" << event.ph
              << "\",\"id\":\"" << id_hex << "\",\"pid\":1,\"tid\":"
              << rows[i].tid << ",\"ts\":" << event.ts_us << '}';
          break;
        case 's':
        case 't':
        case 'f':
          std::snprintf(id_hex, sizeof(id_hex), "0x%llx",
                        static_cast<unsigned long long>(event.id));
          out << "{\"name\":\"" << json_escape(event.name)
              << "\",\"cat\":\"phook.flow\",\"ph\":\"" << event.ph
              << "\",\"id\":\"" << id_hex << "\",\"pid\":1,\"tid\":"
              << rows[i].tid << ",\"ts\":" << event.ts_us
              << (event.ph == 'f' ? ",\"bp\":\"e\"}" : "}");
          break;
        default:
          out << "{\"name\":\"" << json_escape(event.name)
              << "\",\"cat\":\"phook\",\"ph\":\"X\",\"pid\":1,\"tid\":"
              << rows[i].tid << ",\"ts\":" << event.ts_us
              << ",\"dur\":" << event.dur_us << '}';
      }
    }
    out << "]}";
  }
}

bool Tracer::write_to_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[phook obs] cannot write trace to %s\n",
                 path.c_str());
    return false;
  }
  write_chrome_trace(out);
  return out.good();
}

}  // namespace phishinghook::obs
