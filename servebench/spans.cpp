#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

#include "util.hpp"

namespace servebench {

std::atomic<SpanLog*> SpanLog::active_{nullptr};
std::atomic<std::uint64_t> SpanLog::serials_{0};

SpanLog::Buffer& SpanLog::local_buffer() {
  // Buffers are owned by the log, not the thread, so spans recorded on an
  // engine worker survive that worker's exit.
  thread_local std::uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != serial_) {
    auto fresh = std::make_unique<Buffer>();
    buffer = fresh.get();
    owner = serial_;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

void SpanLog::record(const Span& span) {
  if (size_.fetch_add(1, std::memory_order_relaxed) >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  local_buffer().spans.push_back(span);
}

std::vector<Span> SpanLog::collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void SpanLog::write_json(const std::filesystem::path& path) const {
  const std::vector<Span> spans = collect();
  double origin = spans.empty() ? 0.0 : spans.front().start_us;
  for (const Span& s : spans) origin = std::min(origin, s.start_us);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"dropped\":" << dropped()
      << ",\"traceEvents\":[";
  bool first = true;
  char line[512];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"trace_id\":%llu}}",
                  first ? "" : ",", s.name, s.start_us - origin,
                  s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.trace_id));
    out << line;
    first = false;
  }
  out << "\n]}\n";
}

std::vector<SelfTime> SpanLog::self_times(const std::vector<Span>& spans) {
  // Children of each parent id, as intervals.
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  struct Acc {
    std::size_t count = 0;
    double total = 0.0;
    double self_total = 0.0;
    std::vector<double> selfs;
  };
  std::map<std::string, Acc> by_name;
  for (const Span& s : spans) {
    double covered = 0.0;
    if (s.id != 0) {
      if (auto it = children.find(s.id); it != children.end()) {
        // Union of child intervals clipped to this span.
        std::vector<std::pair<double, double>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        double cur_lo = 0.0;
        double cur_hi = -1.0;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_us);
          hi = std::min(hi, s.end_us);
          if (hi <= lo) continue;
          if (lo > cur_hi) {
            if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
          } else {
            cur_hi = std::max(cur_hi, hi);
          }
        }
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      }
    }
    const double dur = s.end_us - s.start_us;
    Acc& acc = by_name[s.name];
    acc.count += 1;
    acc.total += dur;
    acc.self_total += dur - covered;
    acc.selfs.push_back(dur - covered);
  }
  std::vector<SelfTime> out;
  for (auto& [name, acc] : by_name) {
    out.push_back({name, acc.count, acc.total, acc.self_total,
                   median(std::move(acc.selfs))});
  }
  return out;
}

void record_span(const char* name, double start_us, double end_us,
                 std::uint64_t parent, std::uint64_t id,
                 std::uint64_t trace_id) {
  SpanLog* log = SpanLog::active();
  if (log == nullptr) return;
  Span span;
  span.id = id != 0 ? id : log->next_id();
  span.parent = parent;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.trace_id = trace_id;
  log->record(span);
}

}  // namespace servebench
