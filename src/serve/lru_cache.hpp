#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace tero::serve {

/// Bounded LRU map from a canonical query string to a precomputed response,
/// used per QueryService shard for range answers only. NOT thread-safe on
/// its own — each shard guards its cache with the shard mutex, so there is
/// exactly one lock per cache access and no lock is shared across shards.
///
/// Nothing is ever invalidated: the service folds the tsdb version into
/// every key, so a mutation of the store mints new keys and the old entries
/// age out (tested in serve_test RangeCacheInvalidatesWhenStoreAdvances).
template <typename Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up `key`; a hit refreshes its recency.
  [[nodiscard]] std::optional<Value> get(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Insert or refresh `key`; evicts the least-recently-used entry when
  /// full. A capacity of 0 disables caching entirely.
  void put(const std::string& key, Value value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    if (order_.size() >= capacity_) {
      ++evictions_;
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
  }

  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::string, Value>> order_;  ///< MRU at front
  std::unordered_map<std::string,
                     typename std::list<std::pair<std::string, Value>>::
                         iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace tero::serve
