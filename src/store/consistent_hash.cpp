#include "store/consistent_hash.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "util/rng.hpp"

namespace tero::store {
namespace {

std::uint64_t hash_with_salt(std::string_view text, std::uint64_t salt) {
  std::array<char, 8> salt_bytes;
  for (int i = 0; i < 8; ++i) {
    salt_bytes[static_cast<std::size_t>(i)] =
        static_cast<char>((salt >> (8 * i)) & 0xff);
  }
  return util::fnv1a64(std::span<const char>{text.data(), text.size()},
                       util::fnv1a64(salt_bytes));
}

}  // namespace

std::string Pseudonymizer::pseudonym(std::string_view streamer_id) const {
  const std::uint64_t hash = hash_with_salt(streamer_id, salt_);
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "u%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

ConsistentHashRing::ConsistentHashRing(int virtual_nodes)
    : virtual_nodes_(std::max(1, virtual_nodes)) {}

void ConsistentHashRing::add_node(const std::string& node) {
  if (std::find(nodes_.begin(), nodes_.end(), node) != nodes_.end()) return;
  nodes_.push_back(node);
  for (int v = 0; v < virtual_nodes_; ++v) {
    const std::string vnode = node + "#" + std::to_string(v);
    ring_[hash_with_salt(vnode, 0)] = node;
  }
}

void ConsistentHashRing::remove_node(const std::string& node) {
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node), nodes_.end());
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == node) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string ConsistentHashRing::node_for(std::string_view key) const {
  if (ring_.empty()) return {};
  const std::uint64_t h = hash_with_salt(key, 0);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::vector<std::string> ConsistentHashRing::nodes_for(std::string_view key,
                                                       std::size_t n) const {
  std::vector<std::string> owners;
  if (ring_.empty() || n == 0) return owners;
  n = std::min(n, nodes_.size());
  owners.reserve(n);
  auto it = ring_.lower_bound(hash_with_salt(key, 0));
  if (it == ring_.end()) it = ring_.begin();
  while (owners.size() < n) {
    if (std::find(owners.begin(), owners.end(), it->second) == owners.end()) {
      owners.push_back(it->second);
    }
    ++it;
    if (it == ring_.end()) it = ring_.begin();
  }
  return owners;
}

std::uint64_t ConsistentHashRing::key_hash(std::string_view key) {
  return hash_with_salt(key, 0);
}

double RemapDiff::moved_fraction() const noexcept {
  long double total = 0.0L;
  for (const RemapRange& range : ranges) {
    total += static_cast<long double>(range.end - range.begin) + 1.0L;
  }
  return static_cast<double>(total / 18446744073709551616.0L);  // 2^64
}

bool RemapDiff::moved_hash(std::uint64_t hash) const noexcept {
  // Ranges are sorted by begin and non-overlapping: find the last range
  // starting at or before `hash` and test its end.
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), hash,
      [](std::uint64_t h, const RemapRange& r) { return h < r.begin; });
  if (it == ranges.begin()) return false;
  --it;
  return hash <= it->end;
}

bool RemapDiff::moved(std::string_view key) const noexcept {
  return moved_hash(ConsistentHashRing::key_hash(key));
}

RemapDiff ConsistentHashRing::remap_diff(const ConsistentHashRing& before,
                                         const ConsistentHashRing& after) {
  RemapDiff diff;
  if (before.ring_.empty() && after.ring_.empty()) return diff;
  const auto owner_at = [](const ConsistentHashRing& ring,
                           std::uint64_t h) -> const std::string& {
    static const std::string kNone;
    if (ring.ring_.empty()) return kNone;
    auto it = ring.ring_.lower_bound(h);
    if (it == ring.ring_.end()) it = ring.ring_.begin();
    return it->second;
  };

  // Ownership is constant on every arc (prev, cur] between consecutive
  // boundaries of the *union* of both rings' virtual nodes: neither ring
  // has a vnode strictly inside such an arc, so each ring's owner for the
  // whole arc is its owner at `cur`.
  std::vector<std::uint64_t> bounds;
  bounds.reserve(before.ring_.size() + after.ring_.size());
  for (const auto& [h, node] : before.ring_) bounds.push_back(h);
  for (const auto& [h, node] : after.ring_) bounds.push_back(h);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  for (std::size_t j = 0; j < bounds.size(); ++j) {
    const std::uint64_t cur = bounds[j];
    const std::string& from = owner_at(before, cur);
    const std::string& to = owner_at(after, cur);
    if (from == to) continue;
    if (j > 0) {
      diff.ranges.push_back({bounds[j - 1] + 1, cur, from, to});
      continue;
    }
    // The first boundary's arc wraps: (last, 2^64) plus [0, cur]. With a
    // single boundary the arc is the whole space.
    if (bounds.size() == 1) {
      diff.ranges.push_back({0, std::numeric_limits<std::uint64_t>::max(),
                             from, to});
      continue;
    }
    diff.ranges.push_back({0, cur, from, to});
    if (bounds.back() < std::numeric_limits<std::uint64_t>::max()) {
      diff.ranges.push_back({bounds.back() + 1,
                             std::numeric_limits<std::uint64_t>::max(), from,
                             to});
    }
  }
  std::sort(diff.ranges.begin(), diff.ranges.end(),
            [](const RemapRange& a, const RemapRange& b) {
              return a.begin < b.begin;
            });
  return diff;
}

}  // namespace tero::store
