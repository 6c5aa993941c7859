// The two hand-off primitives every threaded layer shares: a blocking FIFO
// (BoundedQueue) and a counting gate for work admitted now and finished
// later on another thread (InFlight).
//
// BoundedQueue carries the streaming pipeline's address hand-off (follower
// → generator), the scoring engine's request queue (any producer →
// micro-batching workers) and the thread pool's job queue. A bound, when
// set, is load-bearing: a full queue *blocks the producer* (push) or
// refuses it (try_push), which is how "consumer behind" becomes measurable
// lag or an explicit shed instead of unbounded memory growth. close()
// provides the graceful-drain handshake: producers fail fast, consumers
// drain what is queued, then see end-of-stream (nullopt / empty batch).
//
// InFlight is what the serving layers wait on at shutdown: the JSON-RPC
// server's frames awaiting a response, the stream coordinator's unresolved
// submissions (capped — its backpressure), score_all's pending results and
// a pool region's outstanding chunks.
//
// Mutex + condition variables rather than lock-free structures: hand-offs
// here happen at request rate (thousands/s), not at per-opcode rate, and
// the blocking semantics *are* the feature.
//
// Because blocking is the backpressure mechanism, it is also worth seeing:
// when tracing is enabled, a push or pop on a *named* queue that actually
// waits records a "queue.push_wait:<name>" / "queue.pop_wait:<name>" span
// covering the wait — the uncontended fast path stays trace-silent, and so
// do unnamed queues whose consumers idle on them by design (engine and pool
// workers parked on an empty queue).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <vector>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace phishinghook::common {

/// Capacity meaning "no bound" for BoundedQueue and InFlight.
inline constexpr std::size_t kUnbounded =
    std::numeric_limits<std::size_t>::max();

/// Outcome of BoundedQueue::try_push.
enum class PushResult {
  kOk,      ///< queued (the item was moved in)
  kFull,    ///< at capacity; the item is untouched
  kClosed,  ///< close() ran; the item is untouched
};

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` may be kUnbounded; 0 is refused. `name`, when given, tags
  /// this queue's blocking-wait spans (the pointer is kept, not copied —
  /// pass a string literal); unnamed queues record no wait spans.
  explicit BoundedQueue(std::size_t capacity, const char* name = nullptr)
      : capacity_(capacity), name_(name) {
    if (capacity == 0) {
      throw InvalidArgument("BoundedQueue capacity must be > 0");
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full; returns false (dropping `value`) once closed.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      traced_wait("queue.push_wait", [&] {
        space_cv_.wait(
            lock, [this] { return closed_ || items_.size() < capacity_; });
      });
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    pushed_ += 1;
    lock.unlock();
    items_cv_.notify_one();
    return true;
  }

  /// Non-blocking push. Moves from `value` only on kOk; on kFull or
  /// kClosed the caller still holds the item (to answer it some other way).
  PushResult try_push(T& value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(value));
      pushed_ += 1;
    }
    items_cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks while empty; nullopt means closed *and* drained (end of
  /// stream — queued items are always delivered before the close shows).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_for_item(lock);
    if (items_.empty()) return std::nullopt;
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    popped_ += 1;
    lock.unlock();
    space_cv_.notify_one();
    return value;
  }

  /// Micro-batching pop. Blocks until an item is queued or the queue
  /// closes; then, while fewer than `max` are queued and the queue is
  /// open, holds the batch open up to `wait` for company. Moves up to
  /// `max` (> 0) items out under one lock hold. Empty means closed and
  /// drained.
  std::vector<T> pop_batch(std::size_t max, std::chrono::microseconds wait) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wait_for_item(lock);
      if (items_.empty()) return {};  // closed and drained
      if (items_.size() < max && !closed_) {
        items_cv_.wait_for(lock, wait, [this, max] {
          return closed_ || items_.size() >= max;
        });
        // Another consumer may have drained the queue meanwhile.
        if (items_.empty()) continue;
      }
      const std::size_t take = std::min(items_.size(), max);
      std::vector<T> batch;
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      popped_ += take;
      lock.unlock();
      space_cv_.notify_all();
      return batch;
    }
  }

  /// Non-blocking pop; nullopt when currently empty (closed or not).
  std::optional<T> try_pop() {
    std::optional<T> value;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      value.emplace(std::move(items_.front()));
      items_.pop_front();
      popped_ += 1;
    }
    space_cv_.notify_one();
    return value;
  }

  /// Stops admissions and wakes every waiter. Idempotent. Items already
  /// queued stay poppable — close() + drain is the end-of-stream handshake.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    items_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  std::uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }

  std::uint64_t total_popped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return popped_;
  }

 private:
  /// Blocks (lock held on return) until an item is queued or closed.
  void wait_for_item(std::unique_lock<std::mutex>& lock) {
    if (closed_ || !items_.empty()) return;
    traced_wait("queue.pop_wait", [&] {
      items_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    });
  }

  template <typename Wait>
  void traced_wait(const char* span_name, Wait&& wait) {
    if (name_ == nullptr) {
      wait();
      return;
    }
    obs::ScopedSpan wait_span(span_name, name_);
    wait();
  }

  const std::size_t capacity_;
  const char* name_;  ///< span detail tag; nullptr = no wait spans
  mutable std::mutex mutex_;
  std::condition_variable items_cv_;  ///< signaled on push/close
  std::condition_variable space_cv_;  ///< signaled on pop/close
  std::deque<T> items_;
  bool closed_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
};

/// Counts work that was admitted and has not finished yet, optionally
/// capping it. Typical shape: enter() before handing work to another
/// thread, leave() as that work's last act, wait_idle() before destroying
/// what the work touches.
class InFlight {
 public:
  explicit InFlight(std::size_t capacity = kUnbounded)
      : capacity_(capacity) {
    if (capacity == 0) throw InvalidArgument("InFlight capacity must be > 0");
  }

  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

  /// Admits one unit, blocking while `capacity` are in flight. Returns
  /// false — admitting nothing — once close() ran, also to a caller
  /// already blocked at the cap.
  bool enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || count_ < capacity_; });
    if (closed_) return false;
    count_ += 1;
    return true;
  }

  /// Marks one admitted unit finished. Notifies under the lock: a
  /// wait_idle() caller may return and destroy this gate the moment the
  /// count reaches zero, so nothing may touch it after the unlock. Waiters
  /// want a free slot or zero, so only those transitions notify.
  void leave() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_-- == capacity_ || count_ == 0) cv_.notify_all();
  }

  /// Refuses every later enter() and wakes those blocked in it. Units
  /// already admitted still finish. Idempotent.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  /// Blocks until nothing is in flight.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< signaled on a freed slot, zero, close
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace phishinghook::common
