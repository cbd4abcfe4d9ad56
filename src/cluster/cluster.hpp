#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fault/policy.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "store/consistent_hash.hpp"

namespace tero::fault {
class FaultInjector;
class FaultPoint;
}  // namespace tero::fault

namespace tero::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace tero::obs

namespace tero::cluster {

/// In-process simulated serving cluster (DESIGN.md §14): N nodes, each the
/// leader for a consistent-hash range of {location, game} keys, with
/// leader->follower epoch-snapshot replication under a bounded-staleness
/// budget. Reads route leader-first (or follower-preferred), fail over
/// through per-node circuit breakers, and follower answers carry the same
/// STALE{age} marker as the single-process degraded path (DESIGN.md §11).
///
/// Determinism contract: the cluster has no clock and no threads of its
/// own. Every mutation — publish, membership change, routing (which moves
/// breakers and applies replication deliveries) — happens on the caller's
/// virtual clock, serially in arrival order; replication delays and
/// follower picks are pure functions of (seed, node, epoch | query index)
/// via util::Rng::indexed. The parallel half of a load sweep only evaluates
/// the already-routed decisions against immutable snapshots, so response
/// checksums are bit-identical at any thread count.

/// Which replica a read should land on.
enum class ReadPolicy {
  kLeaderOnly,         ///< leader first; followers only on failover
  kFollowerPreferred,  ///< deterministic follower pick; leader last resort
};

struct ClusterConfig {
  std::size_t nodes = 3;
  /// Owners per key: the leader plus replicas-1 followers, taken clockwise
  /// from the key's ring position. Clamped to the live node count.
  std::size_t replicas = 2;
  /// Bounded staleness: the maximum number of epochs a served answer may
  /// lag the current one. A node that cannot serve within the budget
  /// refuses the read and routing fails over — STALE{age} never exceeds
  /// this, by construction.
  std::uint64_t staleness_budget = 2;
  std::uint64_t seed = 1;
  /// Observability sinks (not owned; may be null). Exports per-node
  /// breaker state (tero.fault.breaker{endpoint=node-<i>}) and replication
  /// lag (tero.cluster.repl_lag{node=node-<i>}) as labeled gauges.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional fault injection (not owned; may be null). Arms one
  /// "cluster.node-<i>" point per node (read-path errors) and a shared
  /// "cluster.repl" point (delivery drops and delays), both consulted in
  /// keyed decide() mode so parallel-safe determinism holds.
  fault::FaultInjector* injector = nullptr;
  /// Per-node circuit-breaker tuning.
  fault::CircuitBreaker::Config breaker;
};

/// The serial routing verdict for one query: which node serves, from which
/// epoch, and how stale that answer is. `snapshot == nullptr` means nobody
/// could serve (`no_answer` says why); otherwise the answer is
/// serve::answer(query, *snapshot) plus the stale markers.
struct RouteDecision {
  serve::SnapshotPtr snapshot;
  serve::QueryStatus no_answer = serve::QueryStatus::kUnavailable;
  std::string node;
  bool stale = false;
  std::uint64_t stale_age = 0;  ///< epochs behind current; <= budget
  std::size_t attempts = 0;     ///< owners tried (1 = first choice served)
};

/// Full-keyspace ownership audit: every key of the current snapshot must be
/// claimed by exactly one node, and that node must be the one the ring
/// names. Run after every membership change (the join/leave hand-off must
/// lose no keys and double-own none).
struct OwnershipAudit {
  bool ok = false;
  std::size_t keys = 0;          ///< snapshot keyspace size
  std::size_t lost = 0;          ///< keys no node claims
  std::size_t double_owned = 0;  ///< keys claimed by more than one node
  std::size_t misplaced = 0;     ///< claims the ring disagrees with
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  /// Install `entries` as the next epoch at virtual time `now_ms` and
  /// schedule its delivery to every node (per-node deterministic delay; the
  /// cluster.repl fault point may drop or slow a delivery — a dropped epoch
  /// is healed by the next one, snapshots being full state). Returns the
  /// new epoch number.
  std::uint64_t publish(std::vector<serve::SnapshotEntry> entries,
                        std::uint64_t now_ms);
  /// Re-publish the current entries as a new epoch — advances the epoch
  /// clock so follower staleness is observable mid-sweep.
  std::uint64_t republish(std::uint64_t now_ms);

  /// Route one query at virtual time `now_ms`. Serial-only (mutates
  /// breakers and node replication state); `query_index` keys the fault
  /// points and the follower pick.
  [[nodiscard]] RouteDecision route(const serve::Query& query,
                                    std::uint64_t now_ms,
                                    std::uint64_t query_index,
                                    ReadPolicy policy = ReadPolicy::kLeaderOnly);

  // -- membership and fault control (virtual time) ------------------------
  /// Node loss: stops serving and receiving; in-flight deliveries are lost.
  /// The node stays in the ring — its ranges fail over to the follower set.
  void kill(std::size_t node_index);
  /// Revive a killed node; it re-syncs to the current epoch with a
  /// deterministic delay and is meanwhile subject to the staleness budget.
  void restart(std::size_t node_index, std::uint64_t now_ms);
  /// Asymmetric partition: the node keeps serving reads but receives no
  /// replication deliveries, so its staleness grows until the budget makes
  /// it refuse. severed = false heals the link (catch-up rides the next
  /// publish).
  void partition(std::size_t node_index, bool severed);
  /// Add a node ("node-<uid>"): the ring remaps ~1/n of the keyspace to it
  /// and the hand-off transfers the current snapshot synchronously, so no
  /// key is ever unowned. Returns the new node's name.
  std::string join(std::uint64_t now_ms);
  /// Remove a node; its ranges move to the ring successors, which already
  /// hold the replicated snapshot. Returns false for unknown names.
  bool leave(std::string_view name);

  [[nodiscard]] OwnershipAudit audit() const;
  /// The hash-range diff of the most recent join/leave (empty before any).
  [[nodiscard]] const store::RemapDiff& last_remap() const noexcept {
    return last_remap_;
  }

  // -- introspection ------------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::vector<std::string> node_names() const;
  [[nodiscard]] std::size_t index_of(std::string_view name) const;
  [[nodiscard]] bool alive(std::size_t node_index) const;
  [[nodiscard]] std::uint64_t applied_epoch(std::size_t node_index) const;
  [[nodiscard]] fault::CircuitBreaker::State breaker_state(
      std::size_t node_index) const;
  [[nodiscard]] std::size_t claimed_keys(std::size_t node_index) const;
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] serve::SnapshotPtr snapshot() const noexcept {
    return current_;
  }
  /// The replica set (leader first) the ring names for `query`.
  [[nodiscard]] std::vector<std::string> owners_of(
      const serve::Query& query) const;
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Delivery {
    std::uint64_t epoch = 0;
    std::uint64_t apply_at_ms = 0;
    serve::SnapshotPtr snapshot;
  };
  struct Node {
    std::string name;
    std::uint64_t uid = 0;
    bool alive = true;
    bool repl_linked = true;
    serve::SnapshotPtr applied;  ///< last applied epoch (null = none yet)
    std::uint64_t applied_epoch = 0;
    std::deque<Delivery> pending;  ///< in-flight, sorted by apply_at_ms
    std::set<std::string> claimed;  ///< entry keys this node leads
    fault::FaultPoint* fault_point = nullptr;  ///< "cluster.<name>"
    std::unique_ptr<fault::CircuitBreaker> breaker;
    obs::Gauge* lag_gauge = nullptr;
  };

  [[nodiscard]] Node make_node(std::uint64_t uid) const;
  /// Deterministic base replication delay for (node, epoch).
  [[nodiscard]] double repl_delay_ms(const Node& node,
                                     std::uint64_t epoch) const;
  /// Schedule delivery of `snapshot` to `node` (in-order: never before the
  /// tail of its pending queue).
  void enqueue_delivery(Node& node, serve::SnapshotPtr snapshot,
                        std::uint64_t epoch, std::uint64_t publish_ms);
  /// Apply deliveries due by `now_ms` (`all` = everything pending, the
  /// leader's synchronous-apply catch-up).
  void apply_pending(Node& node, std::uint64_t now_ms, bool all);
  void update_lag_gauge(const Node& node) const;
  /// Recompute every node's claimed key set from the ring (publish path —
  /// the keyspace itself may have changed).
  void rebuild_claims();
  /// Incremental hand-off: move exactly the keys `diff` says moved
  /// (join/leave path; audited against a full recompute by audit()).
  void shift_claims(const store::RemapDiff& diff);
  [[nodiscard]] static std::string route_key(const serve::Query& query);

  ClusterConfig config_;
  store::ConsistentHashRing ring_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t next_uid_ = 0;
  std::uint64_t epoch_ = 0;
  serve::SnapshotPtr current_;
  store::RemapDiff last_remap_;
  fault::FaultPoint* repl_point_ = nullptr;  ///< "cluster.repl"

  // Hot-path metric handles (null when metrics are off).
  obs::Counter* reads_ = nullptr;
  obs::Counter* stale_reads_ = nullptr;
  obs::Counter* unavailable_ = nullptr;
  obs::Counter* failovers_ = nullptr;  ///< non-first-choice attempts
  /// Unified denial family: over-budget staleness refusals ->
  /// denied{reason=stale}, unavailable -> denied{reason=unavailable}.
  serve::DeniedCounters denied_;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* nodes_gauge_ = nullptr;
};

}  // namespace tero::cluster
