#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tero::store {

/// Stable pseudonymization of streamer IDs (§7): Tero must remember that a
/// location and a set of measurements belong to the same streamer without
/// remembering who the streamer is. A salted consistent hash gives a stable
/// opaque ID; the salt never leaves the process.
class Pseudonymizer {
 public:
  explicit Pseudonymizer(std::uint64_t salt) : salt_(salt) {}

  /// "u" + 16 hex digits, stable for a given (salt, id) pair.
  [[nodiscard]] std::string pseudonym(std::string_view streamer_id) const;

 private:
  std::uint64_t salt_;
};

/// One contiguous arc of the hash space whose owner changed between two
/// ring configurations: every key hashing into [begin, end] (inclusive)
/// moved from `from` to `to`. An empty `from` means the arc had no owner
/// before (the ring was empty); likewise for `to`.
struct RemapRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::string from;
  std::string to;
};

/// The exact set of keys a ring change moves, expressed as hash-space arcs
/// rather than a key sample — membership tests are O(log ranges) and the
/// moved fraction is exact, so callers (cluster hand-off bookkeeping, the
/// remap-bound property tests) no longer re-derive it with ad-hoc
/// sample-10k-keys-and-count math.
struct RemapDiff {
  /// Non-overlapping, sorted by `begin`; arcs that wrap past 2^64 are split
  /// into a tail range and a [0, ...] range.
  std::vector<RemapRange> ranges;

  [[nodiscard]] bool empty() const noexcept { return ranges.empty(); }
  /// Exact fraction of the 2^64 hash space whose owner changed.
  [[nodiscard]] double moved_fraction() const noexcept;
  /// Did `key` change owners? Pure binary search over `ranges`.
  [[nodiscard]] bool moved(std::string_view key) const noexcept;
  [[nodiscard]] bool moved_hash(std::uint64_t hash) const noexcept;
};

/// Classic consistent-hash ring with virtual nodes; used to shard keys
/// across store replicas so node churn only remaps a ~1/n fraction of keys.
class ConsistentHashRing {
 public:
  explicit ConsistentHashRing(int virtual_nodes = 64);

  void add_node(const std::string& node);
  void remove_node(const std::string& node);

  /// The node owning `key`; empty string if the ring is empty.
  [[nodiscard]] std::string node_for(std::string_view key) const;

  /// The first `n` *distinct* nodes clockwise from `key`'s hash — the
  /// replica set for `key` (owners[0] == node_for(key) is the leader, the
  /// rest are followers in ring order). Capped at node_count().
  [[nodiscard]] std::vector<std::string> nodes_for(std::string_view key,
                                                   std::size_t n) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  /// Live nodes in insertion order (serve::QueryService enumerates its
  /// shards through this).
  [[nodiscard]] const std::vector<std::string>& nodes() const noexcept {
    return nodes_;
  }

  /// Virtual-node positions and their owners, sorted by position: node_for
  /// answers with the first position >= key_hash(key), wrapping to the
  /// first. serve::QueryService flattens this once into an integer table.
  [[nodiscard]] const std::map<std::uint64_t, std::string>& points()
      const noexcept {
    return ring_;
  }

  /// The position a key occupies on the ring (what node_for lower-bounds).
  /// Plain FNV-1a over a fixed 8-byte salt and the key, so a key built from
  /// pieces hashes in place: util::fnv1a64(b, key_hash(a)) == key_hash(a+b).
  [[nodiscard]] static std::uint64_t key_hash(std::string_view key);

  /// Every arc of the hash space whose owner differs between `before` and
  /// `after`. Walks the union of both rings' virtual-node boundaries, so
  /// the result is exact: adding or removing one of n nodes yields arcs
  /// totalling ~1/n of the space (the documented remap bound; see the
  /// store_test property tests).
  [[nodiscard]] static RemapDiff remap_diff(const ConsistentHashRing& before,
                                            const ConsistentHashRing& after);

 private:
  int virtual_nodes_;
  std::vector<std::string> nodes_;
  std::map<std::uint64_t, std::string> ring_;
};

}  // namespace tero::store
