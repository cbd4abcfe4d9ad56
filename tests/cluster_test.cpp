#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/loadgen.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"

namespace tero::cluster {
namespace {

serve::SnapshotEntry make_entry(const std::string& country,
                                const std::string& game,
                                std::vector<double> values) {
  serve::SnapshotEntry entry;
  entry.location.country = country;
  entry.game = game;
  entry.sorted_values = std::move(values);
  std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  entry.samples = entry.sorted_values.size();
  entry.mean_ms = entry.sorted_values.empty()
                      ? 0.0
                      : stats::mean(entry.sorted_values);
  if (!entry.sorted_values.empty()) {
    entry.box = stats::boxplot(entry.sorted_values);
  }
  entry.key = serve::entry_key(entry.location, entry.game);
  entry.streamers = 3;
  return entry;
}

/// A synthetic keyspace big enough to land on every node of a small ring.
std::vector<serve::SnapshotEntry> many_entries(std::size_t n = 48) {
  static const char* const kGames[] = {"lol", "valorant", "fortnite",
                                       "dota2"};
  std::vector<serve::SnapshotEntry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string country =
        std::string(1, static_cast<char>('A' + i % 26)) +
        std::string(1, static_cast<char>('A' + (i / 26) % 26));
    const double base = 20.0 + static_cast<double>(i);
    entries.push_back(make_entry(country, kGames[i % 4],
                                 {base, base + 5, base + 11, base + 18,
                                  base + 40}));
  }
  return entries;
}

ClusterConfig small_config(std::uint64_t seed = 1) {
  ClusterConfig config;
  config.nodes = 4;
  config.replicas = 2;
  config.staleness_budget = 2;
  config.seed = seed;
  return config;
}

serve::Query query_for(const serve::SnapshotEntry& entry) {
  serve::Query query;
  query.kind = serve::QueryKind::kCount;
  query.location = entry.location;
  query.game = entry.game;
  return query;
}

TEST(Cluster, LeaderReadsFreshFollowerServesStaleWithinBudget) {
  Cluster cluster(small_config());
  cluster.publish(many_entries(), 0);
  const auto entry = many_entries()[0];
  const serve::Query query = query_for(entry);

  // t = 1s: every delivery (50..450 ms delay) has applied; the leader
  // serves fresh.
  const RouteDecision fresh = cluster.route(query, 1000, 0);
  ASSERT_NE(fresh.snapshot, nullptr);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.stale_age, 0u);
  const auto owners = cluster.owners_of(query);
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(fresh.node, owners[0]);

  // Advance the epoch, then kill the leader: the follower still holds the
  // previous epoch (replication is in flight) and answers STALE{1}.
  cluster.republish(1000);
  cluster.kill(cluster.index_of(owners[0]));
  const RouteDecision degraded = cluster.route(query, 1001, 1);
  ASSERT_NE(degraded.snapshot, nullptr);
  EXPECT_EQ(degraded.node, owners[1]);
  EXPECT_TRUE(degraded.stale);
  EXPECT_EQ(degraded.stale_age, 1u);
  EXPECT_LE(degraded.stale_age, cluster.config().staleness_budget);
  EXPECT_EQ(degraded.attempts, 2u);

  // The served value must equal the pure answer from the stale epoch.
  const serve::QueryResponse expect =
      serve::answer(query, *degraded.snapshot);
  EXPECT_EQ(expect.status, serve::QueryStatus::kOk);
  EXPECT_DOUBLE_EQ(expect.value, static_cast<double>(entry.samples));
}

TEST(Cluster, PartitionedFollowerRefusesBeyondBudgetAndFailsOver) {
  ClusterConfig config = small_config();
  config.nodes = 2;
  config.replicas = 2;
  Cluster cluster(config);
  cluster.publish(many_entries(), 0);
  const serve::Query query = query_for(many_entries()[0]);
  const auto owners = cluster.owners_of(query);
  ASSERT_EQ(owners.size(), 2u);
  const std::size_t leader = cluster.index_of(owners[0]);
  const std::size_t follower = cluster.index_of(owners[1]);

  // Let the follower apply epoch 1, then partition its replication link
  // and push the epoch budget+1 ahead: its lag exceeds the budget.
  (void)cluster.route(query, 1000, 0);
  cluster.partition(follower, true);
  for (std::uint64_t e = 0; e <= config.staleness_budget; ++e) {
    cluster.republish(1000 + e);
  }
  // Kill the leader: the partitioned follower is the only owner left, but
  // serving would exceed the budget — it must refuse, never answer with
  // age > budget.
  cluster.kill(leader);
  const RouteDecision refused = cluster.route(query, 2000, 1);
  EXPECT_EQ(refused.snapshot, nullptr);
  EXPECT_EQ(refused.no_answer, serve::QueryStatus::kUnavailable);

  // Healing the link and publishing again catches the follower up.
  cluster.partition(follower, false);
  cluster.republish(2000);
  const RouteDecision healed = cluster.route(query, 3000, 2);
  ASSERT_NE(healed.snapshot, nullptr);
  EXPECT_LE(healed.stale_age, config.staleness_budget);
}

TEST(Cluster, OwnershipAuditHoldsAcrossEveryMembershipChange) {
  Cluster cluster(small_config());
  cluster.publish(many_entries(96), 0);
  EXPECT_TRUE(cluster.audit().ok);
  const auto snapshot = cluster.snapshot();
  ASSERT_NE(snapshot, nullptr);

  // Join: the incremental hand-off (remap_diff-driven) must agree with a
  // full ring recompute, move <= the documented bound, and lose nothing.
  std::vector<std::string> before_owner;
  for (const auto& entry : snapshot->entries()) {
    before_owner.push_back(cluster.owners_of(query_for(entry))[0]);
  }
  const std::string joined = cluster.join(100);
  EXPECT_EQ(joined, "node-4");
  OwnershipAudit audit = cluster.audit();
  EXPECT_TRUE(audit.ok) << "lost " << audit.lost << ", double "
                        << audit.double_owned << ", misplaced "
                        << audit.misplaced;
  EXPECT_EQ(audit.keys, snapshot->size());
  const store::RemapDiff& join_diff = cluster.last_remap();
  EXPECT_FALSE(join_diff.empty());
  EXPECT_LT(join_diff.moved_fraction(),
            2.0 / static_cast<double>(cluster.node_count()));
  // Cross-check the diff against brute-force owner comparison, and that
  // every moved key moved *to* the joiner.
  std::size_t i = 0;
  for (const auto& entry : snapshot->entries()) {
    const std::string now = cluster.owners_of(query_for(entry))[0];
    EXPECT_EQ(join_diff.moved(entry.key), now != before_owner[i]);
    if (now != before_owner[i]) {
      EXPECT_EQ(now, joined);
    }
    ++i;
  }

  // Kill does not change ownership (the ring keeps the node).
  cluster.kill(0);
  EXPECT_TRUE(cluster.audit().ok);
  cluster.restart(0, 200);
  EXPECT_TRUE(cluster.audit().ok);

  // Leave: ranges move to ring successors; nothing lost or double-owned.
  ASSERT_TRUE(cluster.leave(joined));
  audit = cluster.audit();
  EXPECT_TRUE(audit.ok);
  EXPECT_LT(cluster.last_remap().moved_fraction(),
            2.0 / static_cast<double>(cluster.node_count() + 1));
  std::size_t claimed_total = 0;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    claimed_total += cluster.claimed_keys(n);
  }
  EXPECT_EQ(claimed_total, snapshot->size());
}

TEST(Cluster, AllOwnersDownIsExplicitlyUnavailable) {
  ClusterConfig config = small_config();
  config.nodes = 2;
  Cluster cluster(config);
  cluster.publish(many_entries(), 0);
  cluster.kill(0);
  cluster.kill(1);
  const RouteDecision decision =
      cluster.route(query_for(many_entries()[0]), 1000, 0);
  EXPECT_EQ(decision.snapshot, nullptr);
  EXPECT_EQ(decision.no_answer, serve::QueryStatus::kUnavailable);
}

/// Satellite gate: bounded staleness + bit-identical checksums, 10 seeds,
/// 1 vs 8 threads, with replication churn (partitions + republishes)
/// running mid-sweep.
TEST(ClusterLoadGen, BoundedStalenessAndChecksumAcross10SeedsAndThreads) {
  const auto entries = many_entries(64);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto sweep = [&](std::size_t threads) {
      ClusterConfig config = small_config(seed);
      Cluster cluster(config);
      cluster.publish(std::vector<serve::SnapshotEntry>(entries), 0);
      ClusterLoadConfig load;
      load.queries = 2000;
      load.seed = seed;
      load.offered_qps = 2000.0;  // 1 s sweep
      load.policy = seed % 2 == 0 ? ReadPolicy::kFollowerPreferred
                                  : ReadPolicy::kLeaderOnly;
      load.events = {
          {100, serve::EventAction::kPartition, 1},
          {200, serve::EventAction::kRepublish, 0},
          {400, serve::EventAction::kRepublish, 0},
          {600, serve::EventAction::kRepublish, 0},
          {700, serve::EventAction::kHeal, 1},
          {800, serve::EventAction::kRepublish, 0},
      };
      util::ThreadPool pool(threads);
      return run_cluster_loadtest(cluster, load,
                                  threads > 1 ? &pool : nullptr);
    };
    const ClusterLoadReport serial = sweep(1);
    const ClusterLoadReport parallel = sweep(8);

    // Bit-identical responses at any thread count.
    EXPECT_EQ(serial.checksum, parallel.checksum) << "seed " << seed;
    EXPECT_EQ(serial.ok, parallel.ok) << "seed " << seed;
    EXPECT_EQ(serial.stale, parallel.stale) << "seed " << seed;
    EXPECT_EQ(serial.unavailable, parallel.unavailable) << "seed " << seed;
    EXPECT_EQ(serial.stale_age_hist, parallel.stale_age_hist)
        << "seed " << seed;

    // Bounded staleness: no served answer ever lags past the budget.
    EXPECT_LE(serial.stale_age_max, 2u) << "seed " << seed;
    EXPECT_EQ(serial.stale_age_hist.size(), 3u);
    // The churn actually produced stale serving (the property is not
    // holding vacuously).
    EXPECT_GT(serial.stale, 0u) << "seed " << seed;
    EXPECT_EQ(serial.issued, 2000u);
  }
}

TEST(ClusterLoadGen, ChecksumIdenticalWithKillAndJoinMidSweep) {
  const auto entries = many_entries(64);
  const auto sweep = [&](std::size_t threads) {
    ClusterConfig config = small_config(7);
    config.nodes = 5;
    Cluster cluster(config);
    cluster.publish(std::vector<serve::SnapshotEntry>(entries), 0);
    ClusterLoadConfig load;
    load.queries = 4000;
    load.seed = 7;
    load.offered_qps = 4000.0;
    // The kill waits out the initial replication window (<= 450 ms), so
    // the dead leader's followers all hold an in-budget epoch.
    load.events = {
        {150, serve::EventAction::kRepublish, 0},
        {500, serve::EventAction::kKill, 1},
        {650, serve::EventAction::kJoin, 0},
        {750, serve::EventAction::kRepublish, 0},
        {850, serve::EventAction::kRestart, 1},
    };
    util::ThreadPool pool(threads);
    const ClusterLoadReport report =
        run_cluster_loadtest(cluster, load, threads > 1 ? &pool : nullptr);
    // The mid-sweep join must leave the keyspace fully owned.
    EXPECT_TRUE(cluster.audit().ok);
    EXPECT_EQ(cluster.node_count(), 6u);
    return report;
  };
  const ClusterLoadReport serial = sweep(1);
  const ClusterLoadReport parallel = sweep(8);
  EXPECT_EQ(serial.checksum, parallel.checksum);
  EXPECT_EQ(serial.availability(), parallel.availability());
  EXPECT_EQ(serial.stale_age_hist, parallel.stale_age_hist);
  EXPECT_EQ(serial.events_applied, 5u);
  EXPECT_EQ(parallel.events_applied, 5u);
  // One kill among five nodes with two replicas: followers keep serving.
  EXPECT_GE(serial.availability(), 0.99);
  EXPECT_LE(serial.stale_age_max, small_config().staleness_budget);
}

/// Satellite gate: the killed node's breaker state is exported as a
/// labeled gauge and a burn-rate SLO on it fires within one scrape of the
/// kill (mirrors the PR 7 chaos gate, but through cluster routing).
TEST(ClusterLoadGen, KilledNodeBreakerFiresWithinOneScrape) {
  obs::MetricsRegistry registry;
  obs::TimelineConfig timeline_config;
  timeline_config.scrape_every_ms = 1000;
  timeline_config.prefixes = {"tero.cluster.", "tero.fault.breaker"};
  obs::MetricsTimeline timeline(registry, timeline_config);
  obs::SloTracker tracker;
  const std::string slo_name = tracker.add(
      "slo node1: value(tero.fault.breaker{endpoint=node-1}) < 1 "
      "over 10s window, budget 1%");
  tracker.attach(timeline);

  ClusterConfig config = small_config(3);
  config.metrics = &registry;
  Cluster cluster(config);
  cluster.publish(many_entries(64), 0);

  ClusterLoadConfig load;
  load.queries = 8000;
  load.seed = 3;
  load.offered_qps = 2000.0;  // 4 s sweep
  load.metrics = &registry;
  load.timeline = &timeline;
  constexpr std::uint64_t kKillMs = 2000;
  load.events = {{kKillMs, serve::EventAction::kKill, 1}};
  const ClusterLoadReport report =
      run_cluster_loadtest(cluster, load, nullptr);

  // Replication lag is exported per node as a labeled gauge.
  EXPECT_TRUE(timeline.has_series("tero.cluster.repl_lag{node=node-1}"));
  EXPECT_TRUE(timeline.has_series("tero.fault.breaker{endpoint=node-1}"));

  // The breaker opens after failure_threshold consecutive failures — at
  // 2000 qps that is milliseconds after the kill — so the next scrape
  // (<= one interval later) sees state 1 and the SLO fires there.
  ASSERT_TRUE(tracker.fired(slo_name));
  std::uint64_t first_fire_ms = 0;
  for (const auto& alert : tracker.alerts()) {
    if (alert.firing) {
      first_fire_ms = alert.t_ms;
      break;
    }
  }
  EXPECT_GT(first_fire_ms, kKillMs);
  EXPECT_LE(first_fire_ms, kKillMs + 2 * timeline_config.scrape_every_ms);

  // Followers absorbed the killed node's ranges: availability holds.
  EXPECT_GE(report.availability(), 0.99);
  EXPECT_EQ(cluster.breaker_state(1), fault::CircuitBreaker::State::kOpen);
}

TEST(ClusterLoadGen, FollowerPreferredPolicyProducesStaleServing) {
  const auto entries = many_entries(64);
  ClusterConfig config = small_config(5);
  Cluster cluster(config);
  cluster.publish(std::vector<serve::SnapshotEntry>(entries), 0);
  ClusterLoadConfig load;
  load.queries = 2000;
  load.seed = 5;
  load.offered_qps = 2000.0;
  load.policy = ReadPolicy::kFollowerPreferred;
  load.events = {{500, serve::EventAction::kRepublish, 0}};
  const ClusterLoadReport report =
      run_cluster_loadtest(cluster, load, nullptr);
  // After the mid-sweep epoch bump, follower-preferred reads lag until the
  // delivery applies — some answers must be STALE, none beyond budget.
  EXPECT_GT(report.stale, 0u);
  EXPECT_LE(report.stale_age_max, config.staleness_budget);
  EXPECT_EQ(report.unavailable, 0u);
}

}  // namespace
}  // namespace tero::cluster
