#include "cluster/cluster.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace tero::cluster {

namespace {
/// Seed salts for the cluster's independent deterministic streams.
constexpr std::uint64_t kReplDelaySalt = 0x7e71;
constexpr std::uint64_t kFollowerPickSalt = 0xf011;
/// Virtual nodes per node. Higher than the store default: the ring hash's
/// final-byte diffusion is weak (same-prefix vnode names cluster), so 256
/// vnodes are needed to keep per-node shares near 1/n and join/leave
/// remaps under the documented 2/n bound.
constexpr int kRingVirtualNodes = 256;
/// Replication delivery delay range, drawn per (node, epoch) from the seed.
constexpr double kReplDelayMsMin = 50.0;
constexpr double kReplDelayMsMax = 450.0;
}  // namespace

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  config_.replicas = std::max<std::size_t>(1, config_.replicas);
  ring_ = store::ConsistentHashRing(kRingVirtualNodes);
  if (config_.injector != nullptr) {
    repl_point_ = &config_.injector->point("cluster.repl");
  }
  if (config_.metrics != nullptr) {
    auto& registry = *config_.metrics;
    reads_ = &registry.counter("tero.cluster.reads");
    stale_reads_ = &registry.counter("tero.cluster.stale_reads");
    unavailable_ = &registry.counter("tero.cluster.unavailable");
    failovers_ = &registry.counter("tero.cluster.failovers");
    denied_ = serve::DeniedCounters(&registry);
    epoch_gauge_ = &registry.gauge("tero.cluster.epoch");
    nodes_gauge_ = &registry.gauge("tero.cluster.nodes");
  }
  const std::size_t count = std::max<std::size_t>(1, config_.nodes);
  nodes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes_.push_back(std::make_unique<Node>(make_node(next_uid_++)));
    ring_.add_node(nodes_.back()->name);
  }
  if (nodes_gauge_ != nullptr) {
    nodes_gauge_->set(static_cast<double>(nodes_.size()));
  }
}

Cluster::~Cluster() = default;

Cluster::Node Cluster::make_node(std::uint64_t uid) const {
  Node node;
  node.uid = uid;
  node.name = "node-" + std::to_string(uid);
  if (config_.injector != nullptr) {
    node.fault_point = &config_.injector->point("cluster." + node.name);
  }
  node.breaker = std::make_unique<fault::CircuitBreaker>(
      config_.breaker,
      fault::CircuitBreaker::state_gauge(config_.metrics, node.name));
  if (config_.metrics != nullptr) {
    node.lag_gauge = &config_.metrics->gauge(obs::MetricsRegistry::labeled(
        "tero.cluster.repl_lag", {{"node", node.name}}));
    node.lag_gauge->set(0.0);
  }
  return node;
}

std::string Cluster::route_key(const serve::Query& query) {
  // Mirrors QueryService::shard_key: every query about one {location, game}
  // entry routes to that entry's owners; top-k is keyed by game alone.
  if (query.kind == serve::QueryKind::kTopK) return "topk|" + query.game;
  return serve::entry_key(query.location, query.game);
}

double Cluster::repl_delay_ms(const Node& node, std::uint64_t epoch) const {
  util::Rng rng = util::Rng::indexed(
      util::mix_seed(config_.seed, kReplDelaySalt),
      util::mix_seed(epoch, node.uid));
  return rng.uniform(kReplDelayMsMin, kReplDelayMsMax);
}

void Cluster::enqueue_delivery(Node& node, serve::SnapshotPtr snapshot,
                               std::uint64_t epoch,
                               std::uint64_t publish_ms) {
  Delivery delivery;
  delivery.epoch = epoch;
  delivery.snapshot = std::move(snapshot);
  delivery.apply_at_ms =
      publish_ms + static_cast<std::uint64_t>(repl_delay_ms(node, epoch));
  // In-order application: a delivery never lands before its predecessor.
  if (!node.pending.empty()) {
    delivery.apply_at_ms =
        std::max(delivery.apply_at_ms, node.pending.back().apply_at_ms);
  }
  node.pending.push_back(std::move(delivery));
}

void Cluster::apply_pending(Node& node, std::uint64_t now_ms, bool all) {
  while (!node.pending.empty() &&
         (all || node.pending.front().apply_at_ms <= now_ms)) {
    Delivery& delivery = node.pending.front();
    if (delivery.epoch > node.applied_epoch) {
      node.applied = std::move(delivery.snapshot);
      node.applied_epoch = delivery.epoch;
    }
    node.pending.pop_front();
  }
  update_lag_gauge(node);
}

void Cluster::update_lag_gauge(const Node& node) const {
  if (node.lag_gauge == nullptr) return;
  node.lag_gauge->set(static_cast<double>(epoch_ - node.applied_epoch));
}

std::uint64_t Cluster::publish(std::vector<serve::SnapshotEntry> entries,
                               std::uint64_t now_ms) {
  ++epoch_;
  current_ =
      std::make_shared<const serve::Snapshot>(epoch_, std::move(entries));
  for (auto& node_ptr : nodes_) {
    Node& node = *node_ptr;
    // A dead or replication-partitioned node receives nothing; it heals by
    // resync (restart) or by a later publish after the partition lifts.
    if (!node.alive || !node.repl_linked) {
      update_lag_gauge(node);
      continue;
    }
    if (repl_point_ != nullptr) {
      const fault::FaultDecision decision =
          repl_point_->decide(util::mix_seed(epoch_, node.uid));
      if (decision.kind == fault::FaultKind::kError ||
          decision.kind == fault::FaultKind::kCrash) {
        // Delivery dropped. Snapshots are full state, so the next epoch
        // (or a leader read's catch-up) heals the gap.
        update_lag_gauge(node);
        continue;
      }
      if (decision.kind == fault::FaultKind::kLatency) {
        enqueue_delivery(node, current_, epoch_,
                         now_ms + static_cast<std::uint64_t>(
                                      decision.delay_s * 1000.0));
        update_lag_gauge(node);
        continue;
      }
    }
    enqueue_delivery(node, current_, epoch_, now_ms);
    update_lag_gauge(node);
  }
  rebuild_claims();
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->set(static_cast<double>(epoch_));
  }
  return epoch_;
}

std::uint64_t Cluster::republish(std::uint64_t now_ms) {
  if (current_ == nullptr) return 0;
  const auto entries = current_->entries();
  return publish(std::vector<serve::SnapshotEntry>(entries.begin(),
                                                   entries.end()),
                 now_ms);
}

RouteDecision Cluster::route(const serve::Query& query, std::uint64_t now_ms,
                             std::uint64_t query_index, ReadPolicy policy) {
  RouteDecision decision;
  if (reads_ != nullptr) reads_->add();
  if (current_ == nullptr) {
    decision.no_answer = serve::QueryStatus::kNoSnapshot;
    return decision;
  }

  std::vector<std::string> owners =
      ring_.nodes_for(route_key(query), config_.replicas);
  std::vector<std::size_t> order;
  order.reserve(owners.size());
  for (const std::string& owner : owners) order.push_back(index_of(owner));
  if (policy == ReadPolicy::kFollowerPreferred && order.size() > 1) {
    // Deterministic follower pick: rotate the follower list by a
    // (seed, query)-keyed offset, leader demoted to last resort.
    util::Rng rng = util::Rng::indexed(
        util::mix_seed(config_.seed, kFollowerPickSalt), query_index);
    const std::size_t followers = order.size() - 1;
    const std::size_t offset = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(followers) - 1));
    std::rotate(order.begin() + 1, order.begin() + 1 +
                    static_cast<std::ptrdiff_t>(offset), order.end());
    std::rotate(order.begin(), order.begin() + 1, order.end());
  }

  const double now_s = static_cast<double>(now_ms) / 1000.0;
  const std::size_t leader_index = index_of(owners.front());
  for (const std::size_t node_index : order) {
    if (node_index >= nodes_.size()) continue;
    Node& node = *nodes_[node_index];
    ++decision.attempts;
    if (!node.breaker->allow(now_s)) {
      // Breaker open: skip without consulting the fault point — the whole
      // point of breaking is to stop poking a known-bad node.
      continue;
    }
    bool failed = !node.alive;
    if (!failed && node.fault_point != nullptr) {
      const fault::FaultDecision fault = node.fault_point->decide(query_index);
      failed = fault.kind == fault::FaultKind::kError ||
               fault.kind == fault::FaultKind::kCrash;
    }
    if (failed) {
      node.breaker->on_failure(now_s);
      continue;
    }
    node.breaker->on_success();

    serve::SnapshotPtr serving;
    std::uint64_t serving_epoch = 0;
    if (node_index == leader_index && node.repl_linked) {
      // The range leader acknowledged the publish, so for its own ranges it
      // serves the current epoch directly — leader reads are always fresh.
      // Its node-local applied state (the ranges it *follows*) still
      // advances only by delivery, so the same node can be fresh as a
      // leader and lagging as a follower.
      serving = current_;
      serving_epoch = epoch_;
    } else {
      apply_pending(node, now_ms, /*all=*/false);
      const std::uint64_t lag = epoch_ - node.applied_epoch;
      if (node.applied == nullptr || lag > config_.staleness_budget) {
        // Bounded staleness: over-budget answers are refused, never
        // served. Not a node failure — the breaker stays untouched.
        denied_.add(serve::DenyReason::kStale);
        continue;
      }
      serving = node.applied;
      serving_epoch = node.applied_epoch;
    }

    decision.snapshot = std::move(serving);
    decision.node = node.name;
    decision.stale_age = epoch_ - serving_epoch;
    decision.stale = decision.stale_age > 0;
    if (decision.stale && stale_reads_ != nullptr) stale_reads_->add();
    if (decision.attempts > 1 && failovers_ != nullptr) {
      failovers_->add(decision.attempts - 1);
    }
    return decision;
  }
  decision.no_answer = serve::QueryStatus::kUnavailable;
  if (unavailable_ != nullptr) unavailable_->add();
  denied_.add(serve::DenyReason::kUnavailable);
  return decision;
}

void Cluster::kill(std::size_t node_index) {
  if (node_index >= nodes_.size()) return;
  Node& node = *nodes_[node_index];
  node.alive = false;
  node.pending.clear();  // in-flight deliveries die with the node
}

void Cluster::restart(std::size_t node_index, std::uint64_t now_ms) {
  if (node_index >= nodes_.size()) return;
  Node& node = *nodes_[node_index];
  if (node.alive) return;
  node.alive = true;
  // Resync: the current epoch arrives after one replication delay; until
  // then the node serves within the staleness budget or refuses.
  if (current_ != nullptr && node.applied_epoch < epoch_) {
    enqueue_delivery(node, current_, epoch_, now_ms);
  }
}

void Cluster::partition(std::size_t node_index, bool severed) {
  if (node_index >= nodes_.size()) return;
  nodes_[node_index]->repl_linked = !severed;
}

std::string Cluster::join(std::uint64_t now_ms) {
  auto node_ptr = std::make_unique<Node>(make_node(next_uid_++));
  Node& node = *node_ptr;
  // Synchronous hand-off: the joining node receives the current snapshot
  // as part of the join, so its ranges are servable the moment the ring
  // includes it — no window where a remapped key has no owner.
  node.applied = current_;
  node.applied_epoch = epoch_;
  const store::ConsistentHashRing before = ring_;
  ring_.add_node(node.name);
  last_remap_ = store::ConsistentHashRing::remap_diff(before, ring_);
  nodes_.push_back(std::move(node_ptr));
  shift_claims(last_remap_);
  update_lag_gauge(*nodes_.back());
  if (nodes_gauge_ != nullptr) {
    nodes_gauge_->set(static_cast<double>(nodes_.size()));
  }
  (void)now_ms;
  return nodes_.back()->name;
}

bool Cluster::leave(std::string_view name) {
  const std::size_t node_index = index_of(name);
  if (node_index >= nodes_.size()) return false;
  const store::ConsistentHashRing before = ring_;
  ring_.remove_node(nodes_[node_index]->name);
  last_remap_ = store::ConsistentHashRing::remap_diff(before, ring_);
  // Hand off before erasing: the departing node still holds its claimed
  // keys, and every one of them is in a moved range, so shift_claims drains
  // its set into the ring successors.
  shift_claims(last_remap_);
  nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(node_index));
  if (nodes_gauge_ != nullptr) {
    nodes_gauge_->set(static_cast<double>(nodes_.size()));
  }
  return true;
}

void Cluster::rebuild_claims() {
  for (auto& node : nodes_) node->claimed.clear();
  if (current_ == nullptr) return;
  for (const serve::SnapshotEntry& entry : current_->entries()) {
    const std::size_t owner = index_of(ring_.node_for(entry.key));
    if (owner < nodes_.size()) nodes_[owner]->claimed.insert(entry.key);
  }
}

void Cluster::shift_claims(const store::RemapDiff& diff) {
  if (diff.empty()) return;
  // Move exactly the keys whose hash falls in a moved range; everything
  // else stays where it is. audit() cross-checks this incremental hand-off
  // against a full ring recompute.
  std::vector<std::string> moved;
  for (auto& node : nodes_) {
    for (auto it = node->claimed.begin(); it != node->claimed.end();) {
      if (diff.moved(*it)) {
        moved.push_back(*it);
        it = node->claimed.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::string& key : moved) {
    const std::size_t owner = index_of(ring_.node_for(key));
    if (owner < nodes_.size()) nodes_[owner]->claimed.insert(std::move(key));
  }
}

OwnershipAudit Cluster::audit() const {
  OwnershipAudit result;
  if (current_ == nullptr) {
    result.ok = true;
    return result;
  }
  std::map<std::string_view, std::size_t> claim_count;
  for (const auto& node : nodes_) {
    for (const std::string& key : node->claimed) {
      ++claim_count[key];
      if (ring_.node_for(key) != node->name) ++result.misplaced;
    }
  }
  const auto entries = current_->entries();
  result.keys = entries.size();
  for (const serve::SnapshotEntry& entry : entries) {
    const auto it = claim_count.find(entry.key);
    if (it == claim_count.end()) {
      ++result.lost;
    } else {
      if (it->second > 1) ++result.double_owned;
      it->second = 0;  // mark seen; leftovers are stray claims
    }
  }
  for (const auto& [key, count] : claim_count) {
    if (count > 0) ++result.misplaced;  // claimed key outside the keyspace
  }
  result.ok = result.lost == 0 && result.double_owned == 0 &&
              result.misplaced == 0;
  return result;
}

std::vector<std::string> Cluster::node_names() const {
  std::vector<std::string> names;
  names.reserve(nodes_.size());
  for (const auto& node : nodes_) names.push_back(node->name);
  return names;
}

std::size_t Cluster::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->name == name) return i;
  }
  return nodes_.size();
}

bool Cluster::alive(std::size_t node_index) const {
  return node_index < nodes_.size() && nodes_[node_index]->alive;
}

std::uint64_t Cluster::applied_epoch(std::size_t node_index) const {
  return node_index < nodes_.size() ? nodes_[node_index]->applied_epoch : 0;
}

fault::CircuitBreaker::State Cluster::breaker_state(
    std::size_t node_index) const {
  if (node_index >= nodes_.size()) return fault::CircuitBreaker::State::kClosed;
  return nodes_[node_index]->breaker->state();
}

std::size_t Cluster::claimed_keys(std::size_t node_index) const {
  return node_index < nodes_.size() ? nodes_[node_index]->claimed.size() : 0;
}

std::vector<std::string> Cluster::owners_of(const serve::Query& query) const {
  return ring_.nodes_for(route_key(query), config_.replicas);
}

}  // namespace tero::cluster
