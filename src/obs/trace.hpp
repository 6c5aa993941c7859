// Span tracer: chrome://tracing-compatible trace-event JSON from RAII
// spans, cheap enough to leave compiled in everywhere.
//
//   obs::ScopedSpan span("rf.fit");            // or span("fit", name)
//   ...                                         // nested spans nest by time
//
// Besides the thread-local "X" complete events, the tracer records
// *causal* events for request-scoped telemetry: chrome async slices
// (ph "b"/"e", keyed by a 64-bit id — one request's stages render as a
// connected lane in Perfetto regardless of which thread ran them) and
// flow arrows (ph "s"/"t"/"f") stitching the per-thread spans a request
// passed through. Async events take explicit timestamps, so a stage whose
// start was only known retroactively (e.g. queue-wait measured at pop)
// can still be drawn where it actually began.
//
// Disabled (the default), a span costs one relaxed atomic load and a
// branch — no clock read, no allocation. Enabled, each span closes with a
// clock read and a write into a bounded lock-free per-thread ring buffer
// (fixed-size name copy, no allocation after a thread's first span), so
// tracing can stay on in production; when a ring wraps, the oldest events
// are dropped and counted, never corrupted.
//
// Gating: set PHISHINGHOOK_TRACE=out.json to enable the global tracer at
// startup and flush the trace to `out.json` at process exit — openable in
// chrome://tracing or
// https://ui.perfetto.dev. Or call enable()/write_to_file() directly.
//
// Concurrency contract: spans may close on any number of threads
// concurrently. enable()/clear() and the export walk must not overlap
// *active* span recording on other threads (configure at startup, export
// at quiescent points — after joins, at exit); the per-ring head counter
// is released by writers and acquired by the exporter, so a quiesced
// export observes every completed event without locks on the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace phishinghook::obs {

class MetricsRegistry;
class ScopedSpan;

class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 16384;  ///< events/thread
  static constexpr std::size_t kMaxNameLength = 47;

  /// Process-wide tracer; reads PHISHINGHOOK_TRACE on first use and, when
  /// set, enables itself and registers an at-exit flush to that path.
  static Tracer& global();

  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Starts buffering spans into per-thread rings of `ring_capacity`
  /// events (rounded up to a power of two). Resets previously buffered
  /// events and the time origin.
  void enable(std::size_t ring_capacity = kDefaultRingCapacity);

  /// Stops recording; buffered events remain exportable.
  void disable();

  /// Drops all buffered events (keeps the enabled state and capacity).
  void clear();

  /// Completed events currently buffered / dropped to ring overflow.
  std::uint64_t events_buffered() const;
  std::uint64_t events_dropped() const;

  /// Publishes ring health into `registry` so overflow is visible on a
  /// metrics scrape without opening the trace file:
  /// `trace_events_buffered` / `trace_enabled` gauges plus a monotone
  /// `trace_events_dropped_total` counter (incremented by the drop delta
  /// since the previous export — call it from a pre-scrape hook).
  void export_metrics(MetricsRegistry& registry) const;

  /// Async slice boundary (chrome ph "b"/"e") at an explicit timestamp
  /// (pass now_us(), or an earlier stamp for a retroactive stage start).
  /// Events with the same (name, id) pair up into one slice on the
  /// request's async lane. No-op while disabled.
  void async_begin(const char* name, std::uint64_t id, double ts_us);
  void async_end(const char* name, std::uint64_t id, double ts_us);

  /// Flow arrow through the current thread (chrome ph "s"/"t"/"f"): start
  /// at the producing span, step at each relay, finish at the consumer.
  /// Binds to the enclosing "X" slice at that timestamp. No-op while
  /// disabled.
  void flow_start(std::uint64_t id);
  void flow_step(std::uint64_t id);
  void flow_finish(std::uint64_t id);

  /// Chrome trace-event JSON ("X" complete events with ts/dur in
  /// microseconds, async "b"/"e" slices and flow "s"/"t"/"f" arrows with
  /// their ids, one tid per recording thread), sorted by start time.
  void write_chrome_trace(std::ostream& out) const;

  /// write_chrome_trace to `path`; false (plus a stderr note) on IO error.
  bool write_to_file(const std::string& path) const;

  /// Microseconds since the tracer's time origin (monotonic).
  double now_us() const;

  /// RAII span on this tracer (equivalent to constructing ScopedSpan).
  ScopedSpan span(const char* name, const char* detail = nullptr);

 private:
  friend class ScopedSpan;

  struct Event {
    char name[kMaxNameLength + 1];
    char ph;           ///< 'X' span, 'b'/'e' async, 's'/'t'/'f' flow
    double ts_us;
    double dur_us;     ///< meaningful for 'X' only
    std::uint64_t id;  ///< async/flow correlation id (0 for 'X')
  };

  struct Ring {
    Ring(std::size_t capacity, std::uint32_t tid)
        : slots(capacity), tid(tid) {}
    std::vector<Event> slots;          ///< capacity is a power of two
    std::atomic<std::uint64_t> head{0};  ///< next slot (mod capacity)
    std::uint32_t tid;
  };

  Tracer() = default;

  /// Closes a span: one clock read, one ring write. `detail`, when given,
  /// is appended to the name as "name:detail" (truncated, no allocation).
  void record(const char* name, const char* detail, double start_us);

  /// One ring write of an arbitrary event (the async/flow entry points).
  void record_event(char ph, const char* name, std::uint64_t id,
                    double ts_us, double dur_us = 0.0);

  Ring& ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_ns_{0};
  std::atomic<std::uint64_t> generation_{0};

  mutable std::mutex mutex_;  ///< guards rings_ registration and export
  std::vector<std::unique_ptr<Ring>> rings_;
  std::size_t capacity_ = kDefaultRingCapacity;
  std::uint32_t next_tid_ = 1;
  /// Drop count already folded into trace_events_dropped_total, so the
  /// exported counter stays monotone across scrapes (guarded by mutex_).
  mutable std::uint64_t dropped_exported_ = 0;
};

/// RAII span against the global tracer (or an explicit one via
/// Tracer::span). When tracing is disabled at construction the destructor
/// is a no-op.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* detail = nullptr)
      : ScopedSpan(Tracer::global(), name, detail) {}

  ScopedSpan(Tracer& tracer, const char* name, const char* detail = nullptr)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        detail_(detail) {
    if (tracer_ != nullptr) start_us_ = tracer_->now_us();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { end(); }

  /// Closes the span now (for stage boundaries that don't align with a
  /// scope); the destructor then does nothing.
  void end() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, detail_, start_us_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* detail_;
  double start_us_ = 0.0;
};

inline ScopedSpan Tracer::span(const char* name, const char* detail) {
  return ScopedSpan(*this, name, detail);
}

}  // namespace phishinghook::obs
