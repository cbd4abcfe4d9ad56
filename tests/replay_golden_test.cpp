// Golden values for the three deterministic load drivers (serve loadtest,
// cluster sweep, control sweep). The other suites compare 1 thread against
// N threads, which cannot catch a change that moves every value the same
// way on both sides; these tests pin the literal checksums, counts and
// decision digests the fixtures produce, at 1 and at 8 threads. A refactor
// of the replay machinery must leave every number here unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/loadgen.hpp"
#include "control/sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tero {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 8};

std::string hex(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Round-trippable text of a double, so modeled quantiles pin exactly.
std::string exact(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

serve::SnapshotEntry make_entry(const std::string& country,
                                const std::string& game,
                                std::vector<double> values) {
  serve::SnapshotEntry entry;
  entry.location.country = country;
  entry.game = game;
  entry.sorted_values = std::move(values);
  std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  entry.samples = entry.sorted_values.size();
  entry.mean_ms = stats::mean(entry.sorted_values);
  entry.box = stats::boxplot(entry.sorted_values);
  entry.key = serve::entry_key(entry.location, entry.game);
  entry.streamers = 3;
  return entry;
}

/// serve_test's three-entry snapshot.
std::vector<serve::SnapshotEntry> three_entries() {
  return {make_entry("DE", "lol", {30, 32, 34, 36, 38}),
          make_entry("FR", "lol", {50, 55, 60, 65, 70}),
          make_entry("BR", "lol", {90, 95, 100, 105, 200})};
}

/// cluster_test's synthetic keyspace.
std::vector<serve::SnapshotEntry> many_entries(std::size_t n) {
  static const char* const kGames[] = {"lol", "valorant", "fortnite",
                                       "dota2"};
  std::vector<serve::SnapshotEntry> entries;
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

/// control_test's sweep dataset.
std::vector<serve::SnapshotEntry> sweep_entries() {
  static const char* const countries[] = {"DE", "FR", "BR", "US", "JP",
                                          "IN"};
  static const char* const games[] = {"lol", "valorant", "fortnite"};
  std::vector<serve::SnapshotEntry> entries;
  double base = 20.0;
  for (const char* country : countries) {
    for (const char* game : games) {
      entries.push_back(make_entry(
          country, game,
          {base, base + 3, base + 7, base + 12, base + 20, base + 45}));
      base += 1.5;
    }
  }
  return entries;
}

TEST(ReplayGolden, ServeClosedLoop) {
  for (const std::size_t threads : kThreadCounts) {
    serve::ServeConfig config;
    config.shards = 4;
    serve::QueryService service(config);
    service.publish(three_entries());
    serve::LoadGenConfig load;
    load.queries = 5000;
    load.seed = 123;
    util::ThreadPool pool(threads);
    const auto report =
        serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(hex(report.checksum), "6348650a81ec716f") << threads;
    EXPECT_EQ(report.ok, 5000u) << threads;
    EXPECT_EQ(report.not_found, 0u) << threads;
  }
}

TEST(ReplayGolden, ServeOpenLoopWithAdmission) {
  for (const std::size_t threads : kThreadCounts) {
    serve::ServeConfig config;
    config.shards = 2;
    config.admission_rate_qps = 25000.0;
    config.admission_burst = 64.0;
    serve::QueryService service(config);
    service.publish(three_entries());
    serve::LoadGenConfig load;
    load.queries = 4000;
    load.seed = 9;
    load.offered_qps = 100000.0;
    util::ThreadPool pool(threads);
    const auto report =
        serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(hex(report.checksum), "9bf3dde595aedb2a") << threads;
    EXPECT_EQ(report.ok, 1063u) << threads;
    EXPECT_EQ(report.shed, 2937u) << threads;
  }
}

TEST(ReplayGolden, ServeTelemetryReplay) {
  // The post-execute telemetry replay: loadgen counters, the synthetic
  // latency histogram and every timeline snapshot.
  for (const std::size_t threads : kThreadCounts) {
    obs::MetricsRegistry registry;
    obs::TimelineConfig timeline_config;
    timeline_config.prefixes = {"tero.loadgen."};
    obs::MetricsTimeline timeline(registry, timeline_config);
    serve::ServeConfig config;
    config.shards = 4;
    config.metrics = &registry;
    serve::QueryService service(config);
    service.publish(three_entries());
    serve::LoadGenConfig load;
    load.queries = 6000;
    load.seed = 77;
    load.offered_qps = 3000.0;
    load.metrics = &registry;
    load.timeline = &timeline;
    load.exemplar_seed = 5;
    util::ThreadPool pool(threads);
    (void)serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);
    std::ostringstream json;
    timeline.write_json(json);
    const std::string text = json.str();
    EXPECT_EQ(hex(util::fnv1a64({text.data(), text.size()})),
              "4bda4f7c2b600271")
        << threads;
  }
}

TEST(ReplayGolden, ClusterChurnSweep) {
  for (const std::size_t threads : kThreadCounts) {
    cluster::ClusterConfig config;
    config.nodes = 5;
    config.replicas = 2;
    config.staleness_budget = 2;
    config.seed = 7;
    obs::MetricsRegistry registry;
    cluster::Cluster fleet(config);
    fleet.publish(many_entries(64), 0);
    cluster::ClusterLoadConfig load;
    load.queries = 4000;
    load.seed = 7;
    load.offered_qps = 4000.0;
    load.metrics = &registry;
    load.events = {
        {150, serve::EventAction::kRepublish, 0},
        {500, serve::EventAction::kKill, 1},
        {650, serve::EventAction::kJoin, 0},
        {700, serve::EventAction::kPartition, 2},
        {750, serve::EventAction::kRepublish, 0},
        {850, serve::EventAction::kRestart, 1},
        {900, serve::EventAction::kHeal, 2},
        {950, serve::EventAction::kLeave, 3},
    };
    util::ThreadPool pool(threads);
    const auto report = cluster::run_cluster_loadtest(
        fleet, load, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(hex(report.checksum), "0e13929b8f217224") << threads;
    EXPECT_EQ(report.ok, 4000u) << threads;
    EXPECT_EQ(report.stale, 206u) << threads;
    EXPECT_EQ(report.unavailable, 0u) << threads;
    EXPECT_EQ(report.failover_attempts, 49u) << threads;
    EXPECT_EQ(report.events_applied, 8u) << threads;
    EXPECT_EQ(exact(report.modeled_p99_ms), "6.1105105806912583") << threads;
  }
}

TEST(ReplayGolden, ControlSweepCell) {
  for (const std::size_t threads : kThreadCounts) {
    control::SweepConfig config;
    config.seed = 3;
    config.duration_s = 2.5;
    config.events = control::standard_chaos_events(config.duration_s);
    config.load_multiplier = 4.0;
    config.publish_every_s = 0.5;
    config.controller.policy = control::Policy::kReactive;
    config.controller.shard_unit_qps = 400.0;
    config.controller.min_shards = 2;
    config.controller.initial_shards = 2;
    config.controller.max_shards = 4;
    config.controller.base_channel_capacity = 1024;
    config.controller.min_channel_capacity = 64;
    util::ThreadPool pool(threads);
    const auto report = control::run_control_sweep(
        sweep_entries(), config, threads > 1 ? &pool : nullptr);
    EXPECT_EQ(hex(report.checksum), "b2b64f1f8ef41ff2") << threads;
    EXPECT_EQ(hex(report.decision_digest), "f8e94ab82bebe929") << threads;
    EXPECT_EQ(report.ok, 5566u) << threads;
    EXPECT_EQ(report.shed, 825u) << threads;
    EXPECT_EQ(report.brownout, 1607u) << threads;
    EXPECT_EQ(report.stale, 4757u) << threads;
    EXPECT_EQ(report.unavailable, 2u) << threads;
    EXPECT_EQ(exact(report.modeled_p99_ms), "632.80670388535009") << threads;
  }
}

}  // namespace
}  // namespace tero
