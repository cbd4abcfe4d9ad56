#include "serve/epoch.hpp"

#include <utility>

namespace tero::serve {

namespace {

/// Publisher ids start at 1, so an empty slot (publisher 0) never matches.
std::atomic<std::uint64_t> next_publisher_id{1};

struct ReaderSlot {
  std::uint64_t publisher = 0;
  std::uint64_t generation = 0;
  SnapshotPtr snapshot;
};

thread_local ReaderSlot reader_slot;

}  // namespace

EpochPublisher::EpochPublisher()
    : id_(next_publisher_id.fetch_add(1, std::memory_order_relaxed)) {}

const Snapshot* EpochPublisher::acquire() const {
  ReaderSlot& slot = reader_slot;
  if (slot.publisher != id_ ||
      slot.generation != generation_.load(std::memory_order_acquire)) {
    // Read the pointer and its generation together, so the slot never pairs
    // one install's generation with another install's snapshot. The slot's
    // old snapshot is released after the lock, in case it was the last ref.
    SnapshotPtr released;
    const std::lock_guard<std::mutex> lock(mutex_);
    released = std::exchange(slot.snapshot, current_);
    slot.generation = generation_.load(std::memory_order_relaxed);
    slot.publisher = id_;
  }
  return slot.snapshot.get();
}

std::uint64_t EpochPublisher::publish(std::vector<SnapshotEntry> entries) {
  const std::uint64_t epoch =
      next_epoch_.fetch_add(1, std::memory_order_relaxed);
  publish(std::make_shared<const Snapshot>(epoch, std::move(entries)));
  return epoch;
}

void EpochPublisher::publish(SnapshotPtr snapshot) {
  const std::uint64_t epoch = snapshot != nullptr ? snapshot->epoch() : 0;
  {
    // Drop the previous snapshot's refcount outside the lock: if we hold the
    // last reference, its destruction should not extend the critical section.
    SnapshotPtr previous;
    const std::lock_guard<std::mutex> lock(mutex_);
    previous = std::exchange(current_, std::move(snapshot));
    generation_.fetch_add(1, std::memory_order_release);
  }
  published_epoch_.store(epoch, std::memory_order_release);
  // Keep next_epoch_ ahead of any externally assigned epoch (restored
  // snapshots carry their original number).
  std::uint64_t next = next_epoch_.load(std::memory_order_relaxed);
  while (next <= epoch && !next_epoch_.compare_exchange_weak(
                              next, epoch + 1, std::memory_order_relaxed)) {
  }
}

}  // namespace tero::serve
