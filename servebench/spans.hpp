// In-memory span log for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer (the client's
// request phases, the explorer and scorer decorators); nothing inside the
// program is instrumented. Each thread appends to its own buffer, and the
// log is written out once, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< static string
  double start_us = 0.0;     ///< steady clock
  double end_us = 0.0;
  std::uint64_t trace_id = 0;  ///< the engine's trace id, when known
};

/// Per-name self-time summary: a span's self time is its duration minus
/// the part of it that its child spans cover.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_us = 0.0;
  double self_total_us = 0.0;
  double self_p50_us = 0.0;
};

class SpanLog {
 public:
  /// The active log, or nullptr when tracing is off (the untraced run).
  static SpanLog* active() {
    return active_.load(std::memory_order_acquire);
  }
  /// Installs `log` as the active log (nullptr turns tracing off).
  static void activate(SpanLog* log) {
    active_.store(log, std::memory_order_release);
  }

  explicit SpanLog(std::size_t capacity)
      : capacity_(capacity), serial_(serials_.fetch_add(1) + 1) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Ids for spans without a natural id (client request spans use their
  /// JSON-RPC id, which is below this range).
  std::uint64_t next_id() {
    return (std::uint64_t{1} << 40) +
           next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends `span` to the calling thread's buffer; drops it once the log
  /// holds `capacity` spans.
  void record(const Span& span);

  std::vector<Span> collect() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Chrome-trace JSON ("X" events; id, parent and trace_id in args).
  void write_json(const std::filesystem::path& path) const;

  static std::vector<SelfTime> self_times(const std::vector<Span>& spans);

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  static std::atomic<SpanLog*> active_;
  static std::atomic<std::uint64_t> serials_;
  std::size_t capacity_;
  std::uint64_t serial_;  ///< tells a thread's cached buffer apart per log
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Records [start_us, end_us) under `name` in the active log, if any. An
/// `id` of 0 draws a fresh one.
void record_span(const char* name, double start_us, double end_us,
                 std::uint64_t parent = 0, std::uint64_t id = 0,
                 std::uint64_t trace_id = 0);

}  // namespace servebench
