// Bounded MPMC queue with class-aware admission, priority-ordered batched
// consumption and deadline expiry — the admission-control and micro-batching
// substrate of noble::engine.
//
// Producers never block: `try_push` reports kFull/kClosed instead of
// waiting, so overload turns into an explicit reject the caller can surface
// (degrade predictably, don't OOM). Every entry carries a RequestClass:
// interactive traffic (latency is the product) and bulk traffic (throughput
// is) share the queue but not its behavior —
//
//  * a bulk capacity cap bounds how much of the queue bulk traffic may
//    occupy, so a bulk flood can never take the headroom interactive
//    admissions rely on;
//  * `pop_batch` drains interactive entries first on every sweep, bulk
//    fills the remainder of the batch;
//  * entries may carry a deadline: ones that expire before a consumer
//    reaches them are handed back separately instead of wasting a slot in
//    the batch (the caller fails their promises; no GEMM is spent on them);
//  * the bulk lane orders by earliest deadline first (EDF): under a
//    deadline-diverse backlog, draining the most urgent work first converts
//    entries that arrival order would have let expire into completions —
//    more goodput from the same queue. Ties (and deadline-less entries,
//    which sort last) break by admission sequence, so the order is total
//    and deterministic, and with equal or absent deadlines it is exactly
//    arrival order. Interactive stays FIFO: its product is arrival-order
//    latency, not deadline goodput.
//
// Consumers block in `pop_batch`, which takes up to `max_items` of the
// entries already queued. With `max_wait` = 0 (the engine's default) that
// is all it does: consumption is work-conserving, and batches form only
// from backlog that piled up while consumers were busy. A positive
// `max_wait` holds an under-full batch open that long for stragglers.
#ifndef NOBLE_ENGINE_BOUNDED_QUEUE_H_
#define NOBLE_ENGINE_BOUNDED_QUEUE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace noble::engine {

enum class PushResult {
  kOk,      ///< item enqueued
  kFull,    ///< capacity (total or bulk) reached; item not enqueued
  kClosed,  ///< queue closed; item not enqueued
};

/// Admission class of one request. Interactive fixes are served first;
/// bulk re-localization sweeps fill whatever capacity and batch slots
/// remain, and are the first to shed under overload.
enum class RequestClass {
  kInteractive,  ///< a user is waiting on this fix
  kBulk,         ///< background sweep; throughput over latency
};

inline constexpr std::size_t kNumRequestClasses = 2;

constexpr const char* request_class_name(RequestClass cls) {
  return cls == RequestClass::kInteractive ? "interactive" : "bulk";
}

/// Canonical class -> array index mapping, shared by every per-class table
/// (queue lanes, engine counters, latency histograms) so the enum's layout
/// lives in exactly one place.
constexpr std::size_t request_class_index(RequestClass cls) {
  return cls == RequestClass::kInteractive ? 0 : 1;
}

template <class T>
class BoundedQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// `bulk_cap` bounds how many queue slots bulk entries may hold at once;
  /// 0 means "no bulk cap" (the total capacity still applies). Setting it
  /// below `capacity` reserves the difference as interactive-only headroom.
  explicit BoundedQueue(std::size_t capacity, std::size_t bulk_cap = 0)
      : capacity_(capacity), bulk_cap_(bulk_cap) {
    NOBLE_EXPECTS(capacity >= 1);
    NOBLE_EXPECTS(bulk_cap <= capacity);
  }

  /// Non-blocking enqueue; the caller owns rejection handling. kFull when
  /// the total capacity or, for a bulk item, the bulk cap is reached. An
  /// optional deadline marks the entry expired once the clock passes it —
  /// `pop_batch` then returns it through its `expired` out-list instead of
  /// the batch.
  PushResult try_push(T item, RequestClass cls = RequestClass::kInteractive,
                      std::optional<Clock::time_point> deadline = std::nullopt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      std::deque<Entry>& lane = lanes_[request_class_index(cls)];
      if (cls == RequestClass::kBulk && bulk_cap_ > 0 && lane.size() >= bulk_cap_) {
        return PushResult::kFull;
      }
      if (size_locked() >= capacity_) return PushResult::kFull;
      Entry entry{std::move(item), deadline, next_seq_++};
      if (cls == RequestClass::kBulk) {
        // Sorted insertion keeps pop_batch a plain front-pop: the deque is
        // always ordered by (deadline, seq), deadline-less entries last.
        // O(lane) memmove per insert is fine at queue-cap scale (~1k small
        // entries) — pop_batch's contended path stays untouched.
        const auto pos = std::upper_bound(
            lane.begin(), lane.end(), entry,
            [](const Entry& a, const Entry& b) { return a.key() < b.key(); });
        lane.insert(pos, std::move(entry));
      } else {
        lane.push_back(std::move(entry));
      }
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks until at least one entry is available (or the queue is closed),
  /// then sweeps up to `max_items` live entries off the queue. Interactive
  /// entries drain first on every sweep; bulk fills the remainder of the
  /// batch. With `max_wait` = 0 the call returns after that first sweep, so
  /// a lone entry is served at once and larger batches come only from
  /// backlog. A positive `max_wait` keeps an under-full batch open at most
  /// that long past the first take, sweeping again as entries arrive.
  ///
  /// When `expired` is non-null, entries whose deadline has passed are
  /// appended there instead of the batch (they do not count against
  /// `max_items`); with only expired entries on hand the call returns
  /// immediately so the caller can fail them without sitting out the
  /// window. When `expired` is null, deadlines are ignored.
  ///
  /// Returns an empty batch with nothing appended to `expired` only when
  /// the queue is closed and fully drained — the consumer's exit signal.
  std::vector<T> pop_batch(std::size_t max_items, std::chrono::microseconds max_wait,
                           std::vector<T>* expired = nullptr) {
    NOBLE_EXPECTS(max_items >= 1);
    std::vector<T> batch;
    const std::size_t expired_before = expired == nullptr ? 0 : expired->size();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return size_locked() > 0 || closed_; });
    if (size_locked() == 0) return batch;  // closed and drained
    const auto window = Clock::now() + max_wait;
    for (;;) {
      // Priority sweep: interactive first, bulk fills what is left.
      const Clock::time_point now = Clock::now();
      for (std::deque<Entry>& lane : lanes_) {
        while (!lane.empty() && batch.size() < max_items) {
          Entry entry = std::move(lane.front());
          lane.pop_front();
          if (expired != nullptr && entry.deadline.has_value() &&
              *entry.deadline <= now) {
            expired->push_back(std::move(entry.item));
          } else {
            batch.push_back(std::move(entry.item));
          }
        }
      }
      if (batch.size() >= max_items || closed_) break;
      // Everything taken so far expired: hand the corpses back now instead
      // of holding the window open over them.
      if (batch.empty() && expired != nullptr && expired->size() > expired_before) {
        break;
      }
      // Wait out the rest of the batching window for stragglers.
      if (!cv_.wait_until(lock, window, [&] { return size_locked() > 0 || closed_; })) {
        break;  // window expired; serve what we have
      }
    }
    return batch;
  }

  /// Closes the queue: producers get kClosed, consumers drain what remains
  /// and then receive empty batches. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_locked();
  }

  std::size_t depth(RequestClass cls) const {
    std::lock_guard<std::mutex> lock(mu_);
    return lanes_[request_class_index(cls)].size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    T item;
    std::optional<Clock::time_point> deadline;
    /// Admission order, the EDF tie-breaker: equal deadlines (and the
    /// deadline-less tail) drain in arrival order, making the bulk-lane
    /// order total and deterministic.
    std::uint64_t seq = 0;

    std::pair<Clock::time_point, std::uint64_t> key() const {
      return {deadline.value_or(Clock::time_point::max()), seq};
    }
  };

  std::size_t size_locked() const { return lanes_[0].size() + lanes_[1].size(); }

  const std::size_t capacity_;
  const std::size_t bulk_cap_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// One lane per class; index 0 (interactive) always drains first.
  /// Interactive is FIFO; bulk is deadline-ordered.
  std::array<std::deque<Entry>, kNumRequestClasses> lanes_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace noble::engine

#endif  // NOBLE_ENGINE_BOUNDED_QUEUE_H_
