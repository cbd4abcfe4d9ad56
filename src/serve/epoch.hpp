#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/snapshot.hpp"

namespace tero::serve {

/// RCU-style snapshot publication: writers build the next epoch off to the
/// side and install it with one pointer swap; no reader ever observes a
/// half-built snapshot and no epoch is freed while a reader still holds it
/// (shared_ptr refcount is the grace period).
///
/// Two reader paths:
///  - current() copies the shared_ptr under the mutex. Any caller that keeps
///    the snapshot beyond one call uses it.
///  - acquire() is the per-query path. Each thread keeps one slot
///    {publisher id, generation, SnapshotPtr}. A query does one acquire load
///    of generation_ and, while it matches the slot, returns the slot's
///    snapshot without touching the mutex or the refcount, so steady-state
///    readers write no cache line a publisher or another reader writes. The
///    slot is refreshed under the mutex only when the generation moved or
///    the slot belongs to another publisher. It holds its snapshot alive
///    until that thread's next acquire() (on any publisher) or its exit.
///
/// The generation counts installs and is bumped under the mutex together
/// with the pointer swap. It is not the epoch: publish(SnapshotPtr) keeps a
/// restored snapshot's own epoch, which may repeat or go backwards. The
/// publisher id comes from a process-wide counter, so a publisher rebuilt
/// at a dead one's address never matches a slot the dead one filled.
///
/// The pointer is guarded by a plain mutex rather than
/// std::atomic<shared_ptr> deliberately: libstdc++ 12's _Sp_atomic unlocks
/// its reader-side spinlock with memory_order_relaxed, so the internal raw
/// pointer accesses have no formal happens-before edge and TSan (correctly,
/// per the ISO model) reports them as a race. The mutex is taken by
/// publishers, by current(), and by acquire() once per install per thread.
///
/// Epoch numbers increase monotonically from 1; epoch 0 means "nothing
/// published yet" (current() and acquire() return null until the first
/// publish).
class EpochPublisher {
 public:
  EpochPublisher();
  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  /// The latest published snapshot; null before the first publish. Safe to
  /// call from any thread at any time.
  [[nodiscard]] SnapshotPtr current() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// The latest published snapshot through the calling thread's slot; null
  /// before the first publish. The pointer stays valid until this thread's
  /// next acquire() on any publisher. Sees every install that happened
  /// before the call on this thread, including its own publish.
  [[nodiscard]] const Snapshot* acquire() const;

  /// Latest published epoch number; 0 before the first publish.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return published_epoch_.load(std::memory_order_acquire);
  }

  /// Build a snapshot from `entries` under the next epoch number and install
  /// it. Returns the new epoch. Publishers may race; each gets a distinct
  /// epoch but only the last installer wins the pointer (see publish()).
  std::uint64_t publish(std::vector<SnapshotEntry> entries);

  /// Install an externally built snapshot (e.g. one restored from disk).
  /// The snapshot's own epoch is preserved and becomes the published epoch.
  void publish(SnapshotPtr snapshot);

 private:
  const std::uint64_t id_;
  std::atomic<std::uint64_t> next_epoch_{1};
  std::atomic<std::uint64_t> published_epoch_{0};
  /// Installs so far; written under mutex_, read lock-free by acquire().
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;  // guards current_
  SnapshotPtr current_;
};

}  // namespace tero::serve
