#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"

namespace tero::stream {

/// Lifetime accounting for one channel; readable at any time, exact after
/// both sides have finished. Counts are in channel elements (the stream
/// pipeline's elements are event batches). `stalls` counts blocking pushes
/// that found the channel full (one stall per push, however long it waited)
/// — the backpressure signal. `max_depth` is the high-water mark of the
/// queue and by construction never exceeds the capacity. `push_blocked_ns`
/// and `pop_blocked_ns` are the wall time producers spent waiting on a full
/// channel and consumers on an empty one: the clock is read only on a path
/// that actually waits, so a non-blocking hand-off pays nothing for them.
struct ChannelStats {
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  std::uint64_t stalls = 0;
  std::uint64_t max_depth = 0;
  std::uint64_t push_blocked_ns = 0;
  std::uint64_t pop_blocked_ns = 0;
};

/// Bounded MPSC/SPSC queue connecting two pipeline stages (DESIGN.md §10).
///
/// Semantics:
///  - push() blocks while the channel is full (bounded memory: at most
///    `capacity` elements are ever queued) and returns false once the
///    channel is closed — the producer's signal to shut down.
///  - pop() blocks while empty; after close() it drains the remaining
///    elements and then returns nullopt.
///  - close() is idempotent and callable from either side: it wakes blocked
///    producers (their push fails) and blocked consumers (pop drains, then
///    ends). A consumer closing its *input* channel is the teardown cascade:
///    every producer blocked on that channel unblocks with push() == false,
///    propagates the close to its own input, and exits.
///
/// The optional gauge/counter sinks export queue depth and backpressure
/// stalls into the metrics registry; like all obs wiring they are
/// observational only and never change queueing behaviour.
template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity, obs::Gauge* depth_gauge = nullptr,
                   obs::Counter* stall_counter = nullptr)
      : capacity_(capacity == 0 ? 1 : capacity),
        depth_gauge_(depth_gauge),
        stall_counter_(stall_counter) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocking push; false when the channel was closed (value dropped).
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.size() >= capacity_ && !closed_) {
      ++stats_.stalls;
      if (stall_counter_ != nullptr) stall_counter_->add();
      const auto start = Clock::now();
      not_full_.wait(lock,
                     [this] { return queue_.size() < capacity_ || closed_; });
      stats_.push_blocked_ns += elapsed_ns(start);
    }
    if (closed_) return false;
    queue_.push_back(std::move(value));
    ++stats_.pushed;
    if (queue_.size() > stats_.max_depth) stats_.max_depth = queue_.size();
    set_depth_locked();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop; nullopt once the channel is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (queue_.empty() && !closed_) {
      const auto start = Clock::now();
      not_empty_.wait(lock, [this] { return !queue_.empty() || closed_; });
      stats_.pop_blocked_ns += elapsed_ns(start);
    }
    if (queue_.empty()) return std::nullopt;
    std::optional<T> value(std::move(queue_.front()));
    queue_.pop_front();
    ++stats_.popped;
    set_depth_locked();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] ChannelStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::uint64_t elapsed_ns(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  void set_depth_locked() {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<double>(queue_.size()));
    }
  }

  const std::size_t capacity_;
  obs::Gauge* depth_gauge_;
  obs::Counter* stall_counter_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
  ChannelStats stats_;
};

}  // namespace tero::stream
