#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/epoch.hpp"
#include "serve/lru_cache.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapshot_io.hpp"
#include "stats/descriptive.hpp"
#include "store/consistent_hash.hpp"
#include "synth/sessions.hpp"
#include "tero/pipeline.hpp"
#include "util/thread_pool.hpp"

namespace tero::serve {
namespace {

SnapshotEntry make_entry(const std::string& country, const std::string& game,
                         std::vector<double> values,
                         const std::string& region = "",
                         const std::string& city = "") {
  SnapshotEntry entry;
  entry.location.city = city;
  entry.location.region = region;
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
  entry.key = entry_key(entry.location, entry.game);
  entry.streamers = 3;
  return entry;
}

std::vector<SnapshotEntry> three_entries() {
  return {make_entry("DE", "lol", {30, 32, 34, 36, 38}),
          make_entry("FR", "lol", {50, 55, 60, 65, 70}),
          make_entry("BR", "lol", {90, 95, 100, 105, 200})};
}

TEST(Snapshot, FindAndPointStats) {
  const Snapshot snapshot(1, three_entries());
  ASSERT_EQ(snapshot.size(), 3u);
  geo::Location de;
  de.country = "DE";
  const SnapshotEntry* entry = snapshot.find(de, "lol");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->samples, 5u);
  EXPECT_DOUBLE_EQ(entry->mean_ms, 34.0);
  EXPECT_DOUBLE_EQ(entry->percentile(50), 34.0);
  EXPECT_DOUBLE_EQ(entry->ecdf(33.0), 0.4);   // 30, 32 <= 33
  EXPECT_DOUBLE_EQ(entry->ecdf(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(entry->ecdf(0.0), 0.0);
  geo::Location us;
  us.country = "US";
  EXPECT_EQ(snapshot.find(us, "lol"), nullptr);
  EXPECT_EQ(snapshot.find(de, "dota"), nullptr);
}

TEST(Snapshot, TopKWorstRanksByP95) {
  const Snapshot snapshot(1, three_entries());
  const auto worst = snapshot.worst_locations("lol", 2);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_EQ(worst[0]->location.country, "BR");
  EXPECT_EQ(worst[1]->location.country, "FR");
  // k larger than the population clips without crashing.
  EXPECT_EQ(snapshot.worst_locations("lol", 99).size(), 3u);
  EXPECT_TRUE(snapshot.worst_locations("unknown-game", 3).empty());
}

/// A small single-threaded pipeline run; `on_dataset` (may be empty) sees
/// the finished dataset.
core::Dataset small_pipeline_dataset(
    std::function<void(const core::Dataset&)> on_dataset = {}) {
  synth::WorldConfig world_config;
  world_config.seed = 5;
  world_config.num_streamers = 40;
  world_config.p_twitter = 1.0;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 3;
  synth::SessionGenerator generator(world, behavior, 7);
  const auto streams = generator.generate();

  core::TeroConfig config;
  config.p_latency_visible = 1.0;
  config.threads = 1;
  config.on_dataset = std::move(on_dataset);
  core::Pipeline pipeline(config);
  return pipeline.run(world, streams);
}

TEST(Snapshot, BuildsFromPipelineDataset) {
  // The publish hook fires at the end of run() with the finished dataset.
  ServeConfig serve_config;
  QueryService service(serve_config);
  const core::Dataset dataset = small_pipeline_dataset(publish_hook(service));

  const SnapshotPtr snapshot = service.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->epoch(), 1u);
  EXPECT_EQ(snapshot->size(), dataset.aggregates.size());
  for (const auto& aggregate : dataset.aggregates) {
    const SnapshotEntry* entry =
        snapshot->find(aggregate.location, aggregate.game);
    ASSERT_NE(entry, nullptr) << aggregate.game;
    EXPECT_EQ(entry->samples, aggregate.distribution.size());
    EXPECT_EQ(entry->streamers, aggregate.streamers);
    if (aggregate.box.has_value()) {
      EXPECT_DOUBLE_EQ(entry->box.p50, aggregate.box->p50);
      // Serving percentiles agree with the offline boxplot computation.
      EXPECT_DOUBLE_EQ(entry->percentile(95), aggregate.box->p95);
    }
  }
}

TEST(EpochPublisher, SwapsAtomicallyUnderConcurrentReaders) {
  EpochPublisher publisher;
  EXPECT_EQ(publisher.current(), nullptr);
  EXPECT_EQ(publisher.epoch(), 0u);

  // Each published epoch e carries e entries, all named consistently —
  // readers assert they never see a half-built or mixed snapshot.
  constexpr std::uint64_t kEpochs = 200;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observed_epochs{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const SnapshotPtr snapshot = publisher.current();
        if (snapshot == nullptr) continue;
        const std::uint64_t epoch = snapshot->epoch();
        ASSERT_EQ(snapshot->size(), epoch);  // snapshot is internally whole
        ASSERT_GE(epoch, last_seen);         // epochs are monotone per reader
        last_seen = epoch;
        observed_epochs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    std::vector<SnapshotEntry> entries;
    for (std::uint64_t i = 0; i < e; ++i) {
      entries.push_back(make_entry("C" + std::to_string(i), "g",
                                   {double(e), double(e) + 1.0}));
    }
    publisher.publish(std::move(entries));
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(publisher.epoch(), kEpochs);
  EXPECT_GT(observed_epochs.load(), 0u);
  EXPECT_EQ(publisher.current()->size(), kEpochs);
}

TEST(EpochPublisher, RestoredSnapshotKeepsItsEpoch) {
  EpochPublisher publisher;
  publisher.publish(std::make_shared<const Snapshot>(41, three_entries()));
  EXPECT_EQ(publisher.epoch(), 41u);
  // The next built epoch continues past the restored number.
  const std::uint64_t next = publisher.publish(three_entries());
  EXPECT_EQ(next, 42u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_EQ(cache.get("a"), 1);  // refresh a; b is now LRU
  cache.put("c", 3);
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.get("a"), 1);
  EXPECT_EQ(cache.get("c"), 3);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
  cache.put("d", 4);  // a is now LRU and goes; size stays at capacity
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<int> cache(0);
  cache.put("a", 1);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(QueryServiceTest, PointQueriesMatchSnapshotMath) {
  QueryService service(ServeConfig{});
  service.publish(three_entries());
  Query query;
  query.location.country = "FR";
  query.game = "lol";
  query.kind = QueryKind::kPercentile;
  query.param = 50;
  EXPECT_DOUBLE_EQ(service.query(query).value, 60.0);
  query.kind = QueryKind::kMean;
  EXPECT_DOUBLE_EQ(service.query(query).value, 60.0);
  query.kind = QueryKind::kCount;
  EXPECT_DOUBLE_EQ(service.query(query).value, 5.0);
  query.kind = QueryKind::kEcdf;
  query.param = 57.0;
  EXPECT_DOUBLE_EQ(service.query(query).value, 0.4);
  query.kind = QueryKind::kTopK;
  query.k = 1;
  const auto top = service.query(query);
  ASSERT_EQ(top.top.size(), 1u);
  geo::Location brazil;
  brazil.country = "BR";
  EXPECT_EQ(top.top[0].location, brazil.to_string());
}

TEST(QueryServiceTest, StatusesAndEmptyService) {
  QueryService service(ServeConfig{});
  Query query;
  query.location.country = "DE";
  query.game = "lol";
  EXPECT_EQ(service.query(query).status, QueryStatus::kNoSnapshot);
  service.publish(three_entries());
  EXPECT_EQ(service.query(query).status, QueryStatus::kOk);
  query.location.country = "US";
  EXPECT_EQ(service.query(query).status, QueryStatus::kNotFound);
}

TEST(QueryServiceTest, PointQueriesBypassCacheAcrossPublish) {
  obs::MetricsRegistry registry;
  ServeConfig config;
  config.shards = 2;
  config.metrics = &registry;
  QueryService service(config);
  service.publish(
      {make_entry("DE", "lol", {10, 20, 30})});

  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;
  const auto first = service.query(query);
  EXPECT_DOUBLE_EQ(first.value, 20.0);
  EXPECT_FALSE(first.cached);
  // Repeats are answered from the snapshot again, never from the LRU.
  const auto second = service.query(query);
  EXPECT_FALSE(second.cached);
  EXPECT_DOUBLE_EQ(second.value, 20.0);
  query.kind = QueryKind::kTopK;
  EXPECT_FALSE(service.query(query).cached);
  EXPECT_FALSE(service.query(query).cached);
  query.kind = QueryKind::kMean;
  EXPECT_EQ(service.cache_hits(), 0u);
  EXPECT_EQ(service.cache_misses(), 0u);
  EXPECT_EQ(registry.counter("tero.serve.cache_hits").value(), 0u);

  // New epoch with different data: the next query answers from the new
  // snapshot.
  service.publish({make_entry("DE", "lol", {100, 200, 300})});
  const auto fresh = service.query(query);
  EXPECT_FALSE(fresh.cached);
  EXPECT_DOUBLE_EQ(fresh.value, 200.0);
  EXPECT_EQ(fresh.epoch, 2u);
  EXPECT_EQ(registry.counter("tero.serve.publishes").value(), 2u);
  // The per-shard queue-depth gauges exist with the shard label.
  EXPECT_EQ(registry
                .gauge(obs::MetricsRegistry::labeled(
                    "tero.serve.shard_queue_depth",
                    {{"shard", "shard-" + std::to_string(
                                   service.shard_for(query))}}))
                .value(),
            1.0);
}

TEST(QueryServiceTest, ShardQueueDepthGaugeReadsInFlightDepth) {
  obs::MetricsRegistry registry;
  ServeConfig config;
  config.shards = 4;
  config.metrics = &registry;
  QueryService service(config);
  service.publish(three_entries());
  const auto depth_of = [&registry](std::size_t shard) {
    for (const auto& [name, gauge] : registry.gauges()) {
      if (name == "tero.serve.shard_queue_depth{shard=shard-" +
                      std::to_string(shard) + "}") {
        return gauge->value();
      }
    }
    return -1.0;  // series missing
  };
  // Every shard's gauge is resolved at construction and reads 0 before
  // any query arrives.
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(depth_of(shard), 0.0) << shard;
  }

  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;
  const std::size_t owner = service.shard_for(query);
  (void)service.query(query);
  EXPECT_EQ(depth_of(owner), 1.0);  // only this query was in flight

  // Concurrent readers of one key: each sample is the shard's in-flight
  // count at admission, so it lies between 1 and the number of readers.
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) (void)service.query(query);
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_GE(depth_of(owner), 1.0);
  EXPECT_LE(depth_of(owner), static_cast<double>(kReaders));
}

TEST(QueryServiceTest, ShardingIsStableAndCovering) {
  ServeConfig config;
  config.shards = 4;
  QueryService service(config);
  service.publish(three_entries());
  Query query;
  query.game = "lol";
  std::vector<std::size_t> seen;
  for (const char* country : {"DE", "FR", "BR"}) {
    query.location.country = country;
    const std::size_t shard = service.shard_for(query);
    EXPECT_LT(shard, service.shard_count());
    EXPECT_EQ(shard, service.shard_for(query));  // stable
    seen.push_back(shard);
  }
  // TopK queries shard by game, also inside range.
  query.kind = QueryKind::kTopK;
  EXPECT_LT(service.shard_for(query), service.shard_count());
}

TEST(QueryServiceTest, IntegerRouteMatchesRing) {
  // Every key of a pipeline snapshot, each game's top-k key, and edge keys.
  const auto entries = entries_from(small_pipeline_dataset());
  ASSERT_FALSE(entries.empty());

  std::vector<Query> queries;
  std::vector<std::string> games;
  const QueryKind kinds[] = {QueryKind::kPercentile, QueryKind::kMean,
                             QueryKind::kRangeMean};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Query query;
    query.kind = kinds[i % 3];
    query.location = entries[i].location;
    query.game = entries[i].game;
    queries.push_back(query);
    if (std::find(games.begin(), games.end(), query.game) == games.end()) {
      games.push_back(query.game);
    }
  }
  games.push_back("");
  for (const std::string& game : games) {
    Query query;
    query.kind = QueryKind::kTopK;
    query.game = game;
    queries.push_back(query);
  }
  const geo::Location edges[] = {
      {"", "", ""},
      {"", "", "US"},
      {"", "California", "US"},
      {"Los Angeles", "", "US"},
      {"S\xc3\xa3o Paulo", "S\xc3\xa3o Paulo", "BR"},
      {"\xff\x80|", "|", "\xe6\x9d\xb1\xe4\xba\xac"},
  };
  for (const geo::Location& location : edges) {
    for (const char* game : {"", "lol", "g\xc3\xa9"}) {
      Query query;
      query.location = location;
      query.game = game;
      queries.push_back(query);
    }
  }

  for (const std::size_t shards : {1, 2, 4, 8}) {
    ServeConfig config;
    config.shards = shards;
    const QueryService service(config);
    // The routing the service had before it flattened its ring: build the
    // key string, ask the ring, name the shard.
    store::ConsistentHashRing ring(64);
    for (std::size_t i = 0; i < shards; ++i) {
      ring.add_node("shard-" + std::to_string(i));
    }
    for (const Query& query : queries) {
      const std::string key = query.kind == QueryKind::kTopK
                                  ? "topk|" + query.game
                                  : entry_key(query.location, query.game);
      EXPECT_EQ("shard-" + std::to_string(service.shard_for(query)),
                ring.node_for(key))
          << shards << " shards, key " << key;
    }
  }
}

TEST(QueryServiceTest, ReadersNeverSeeNullOrMixedEpochsWhilePublishing) {
  // Epoch e answers kMean = e + 0.5 for every key, so a reader can check
  // that the value came from the epoch the response names.
  QueryService service(ServeConfig{});
  const auto entries_for = [](std::uint64_t e) {
    return std::vector<SnapshotEntry>{
        make_entry("DE", "lol", {double(e), double(e) + 1.0})};
  };
  Query query;
  query.kind = QueryKind::kMean;
  query.location.country = "DE";
  query.game = "lol";

  constexpr std::uint64_t kEpochs = 200;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      std::uint64_t last_seen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const bool published = service.epoch() > 0;
        const QueryResponse response = service.query(query);
        const bool ok =
            response.status == QueryStatus::kNoSnapshot
                ? !published
                : response.status == QueryStatus::kOk &&
                      response.value == double(response.epoch) + 0.5 &&
                      response.epoch >= last_seen;  // monotone per reader
        if (!ok) {
          ADD_FAILURE() << "status " << static_cast<int>(response.status)
                        << " epoch " << response.epoch << " value "
                        << response.value << " after epoch " << last_seen;
          failed.store(true);
          return;
        }
        if (response.status == QueryStatus::kNoSnapshot) continue;
        last_seen = response.epoch;
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t e = 1; e <= kEpochs && !failed.load(); ++e) {
    // Wait for a few answers between installs, so reads overlap publishes.
    const std::uint64_t before = answered.load(std::memory_order_relaxed);
    EXPECT_EQ(service.publish(entries_for(e)), e);
    while (answered.load(std::memory_order_relaxed) < before + 3 &&
           !failed.load()) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  const QueryResponse last = service.query(query);
  EXPECT_EQ(last.epoch, kEpochs);
  EXPECT_EQ(last.value, double(kEpochs) + 0.5);
}

TEST(QueryServiceTest, QueryAfterOwnPublishSeesIt) {
  QueryService service(ServeConfig{});
  Query query;
  query.kind = QueryKind::kMean;
  query.location.country = "DE";
  query.game = "lol";
  const auto publish_mean = [&](std::uint64_t epoch, double mean) {
    service.publish(std::make_shared<const Snapshot>(
        epoch, std::vector<SnapshotEntry>{
                   make_entry("DE", "lol", {mean - 1.0, mean + 1.0})}));
  };
  EXPECT_EQ(service.query(query).status, QueryStatus::kNoSnapshot);
  publish_mean(5, 10.0);
  EXPECT_EQ(service.query(query).value, 10.0);
  // Same epoch number, new snapshot: the slot must not mistake it for the
  // one it holds.
  publish_mean(5, 20.0);
  QueryResponse response = service.query(query);
  EXPECT_EQ(response.value, 20.0);
  EXPECT_EQ(response.epoch, 5u);
  // A restored snapshot below the current epoch.
  publish_mean(2, 30.0);
  response = service.query(query);
  EXPECT_EQ(response.value, 30.0);
  EXPECT_EQ(response.epoch, 2u);
  // And a built one after it.
  service.publish({make_entry("DE", "lol", {39.0, 41.0})});
  EXPECT_EQ(service.query(query).value, 40.0);
}

TEST(QueryServiceTest, TwoServicesOnOneThreadKeepTheirSnapshots) {
  QueryService first(ServeConfig{});
  QueryService second(ServeConfig{});
  first.publish({make_entry("DE", "lol", {1.0, 3.0})});
  second.publish({make_entry("DE", "lol", {5.0, 7.0})});
  Query query;
  query.kind = QueryKind::kMean;
  query.location.country = "DE";
  query.game = "lol";
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(first.query(query).value, 2.0) << i;
    EXPECT_EQ(second.query(query).value, 6.0) << i;
    if (i == 5) second.publish({make_entry("DE", "lol", {5.0, 7.0})});
  }
}

TEST(QueryServiceTest, RebuiltServiceNeverAnswersFromTheOldOne) {
  Query query;
  query.kind = QueryKind::kMean;
  query.location.country = "DE";
  query.game = "lol";
  std::optional<QueryService> service;
  service.emplace(ServeConfig{});
  EXPECT_EQ(service->query(query).status, QueryStatus::kNoSnapshot);
  for (int round = 1; round <= 5; ++round) {
    // The optional's storage puts every round's service at the old one's
    // address, with the same epoch and install count when it first answers.
    service.emplace(ServeConfig{});
    const double mean = 10.0 * round;
    service->publish({make_entry("DE", "lol", {mean - 1.0, mean + 1.0})});
    EXPECT_EQ(service->query(query).value, mean) << "round " << round;
  }
  service.emplace(ServeConfig{});
  EXPECT_EQ(service->query(query).status, QueryStatus::kNoSnapshot);
}

TEST(QueryServiceTest, ShedsUnderOverloadAndRecovers) {
  obs::MetricsRegistry registry;
  ServeConfig config;
  config.admission_rate_qps = 10.0;
  config.admission_burst = 5.0;
  config.metrics = &registry;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.location.country = "DE";
  query.game = "lol";
  query.kind = QueryKind::kMean;

  // Burst capacity admits the first 5 queries at t=0, then sheds.
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (int i = 0; i < 20; ++i) {
    const auto response = service.query(query, /*now_s=*/0.0);
    if (response.status == QueryStatus::kOk) ++ok;
    if (response.status == QueryStatus::kShed) ++shed;
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(shed, 15u);
  EXPECT_EQ(service.shed_count(), 15u);
  EXPECT_EQ(registry
                .counter(obs::MetricsRegistry::labeled("tero.serve.denied",
                                                       {{"reason", "shed"}}))
                .value(),
            15u);

  // One second later the bucket has refilled rate * 1s = 10 tokens, but the
  // balance is capped at the burst size, so only 5 more get through.
  ok = shed = 0;
  for (int i = 0; i < 20; ++i) {
    const auto response = service.query(query, /*now_s=*/1.0);
    if (response.status == QueryStatus::kOk) ++ok;
    if (response.status == QueryStatus::kShed) ++shed;
  }
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(shed, 15u);
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  AdmissionController admission(0.0, 0.0);
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(admission.try_admit(0.0));
  EXPECT_EQ(admission.shed(), 0u);
}

TEST(AdmissionControllerTest, RateStepUpAtRefillBoundaryMintsNothing) {
  // 10 qps, burst 10; drain the bucket dry at t=0.
  AdmissionController admission(10.0, 10.0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(admission.try_admit(0.0));
  ASSERT_FALSE(admission.try_admit(0.0));

  // Step up to 100 qps exactly at the t=1s refill boundary. The elapsed
  // second must refill at the *old* 10 qps (10 tokens), not retroactively
  // at the new 100 qps.
  admission.set_rate(1.0, 100.0, 100.0);
  std::uint64_t ok = 0;
  while (admission.try_admit(1.0)) ++ok;
  EXPECT_EQ(ok, 10u);

  // From here the new rate applies: the next second accrues 100 tokens.
  ok = 0;
  while (admission.try_admit(2.0)) ++ok;
  EXPECT_EQ(ok, 100u);
}

TEST(AdmissionControllerTest, RateStepDownAtRefillBoundaryClampsBalance) {
  // 100 qps, burst 100: at the t=1s boundary the balance is a full 100.
  AdmissionController admission(100.0, 100.0);
  ASSERT_TRUE(admission.try_admit(0.0));

  // Step down to 5 qps / burst 5 exactly at the boundary: the balance must
  // clamp to the new burst, never go negative, and never keep the old
  // surplus.
  admission.set_rate(1.0, 5.0, 5.0);
  std::uint64_t ok = 0;
  while (admission.try_admit(1.0)) ++ok;
  EXPECT_EQ(ok, 5u);
  EXPECT_FALSE(admission.try_admit(1.05));  // only 0.25 tokens accrued

  // Refill now runs at the stepped-down rate.
  ok = 0;
  while (admission.try_admit(2.0)) ++ok;
  EXPECT_EQ(ok, 5u);
  EXPECT_EQ(admission.rate_qps(), 5.0);
  EXPECT_EQ(admission.burst(), 5.0);
}

TEST(AdmissionControllerTest, RetuneKeepsCountersAndDisableReenable) {
  AdmissionController admission(2.0, 2.0);
  ASSERT_TRUE(admission.try_admit(0.0));
  ASSERT_TRUE(admission.try_admit(0.0));
  ASSERT_FALSE(admission.try_admit(0.0));
  const std::uint64_t admitted_before = admission.admitted();
  const std::uint64_t shed_before = admission.shed();

  // Disable: everything passes, nothing is counted.
  admission.set_rate(10.0, 0.0);
  EXPECT_FALSE(admission.enabled());
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(admission.try_admit(10.0));
  EXPECT_EQ(admission.admitted(), admitted_before);
  EXPECT_EQ(admission.shed(), shed_before);

  // Re-enable much later: the bucket starts full at the new burst — the
  // disabled span must not have accrued tokens beyond that.
  admission.set_rate(100.0, 4.0, 4.0);
  std::uint64_t ok = 0;
  while (admission.try_admit(100.0)) ++ok;
  EXPECT_EQ(ok, 4u);
}

TEST(AdmissionControllerTest, DisabledCountsNothingAndEnablesFull) {
  for (const double rate : {0.0, -5.0}) {
    AdmissionController admission(rate, 10.0);
    for (int i = 0; i < 20; ++i) EXPECT_TRUE(admission.try_admit(i * 0.1));
    EXPECT_EQ(admission.admitted(), 0u);
    EXPECT_EQ(admission.shed(), 0u);
    // Enabling a controller built disabled starts with a full bucket.
    admission.set_rate(3.0, 10.0, 4.0);
    EXPECT_TRUE(admission.enabled());
    std::uint64_t ok = 0;
    for (int i = 0; i < 10; ++i) ok += admission.try_admit(3.0) ? 1 : 0;
    EXPECT_EQ(ok, 4u);
    EXPECT_EQ(admission.admitted(), 4u);
    EXPECT_EQ(admission.shed(), 6u);
  }
}

TEST(QueryServiceTest, AdmissionToggleUnderConcurrentQueries) {
  QueryService service(ServeConfig{});
  service.publish(three_entries());
  EXPECT_TRUE(service.try_admit());
  EXPECT_TRUE(service.try_admit(1.0));
  EXPECT_EQ(service.shed_count(), 0u);

  Query query;
  query.kind = QueryKind::kMean;
  query.location.country = "DE";
  query.game = "lol";
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const QueryStatus status = service.query(query).status;
        ASSERT_TRUE(status == QueryStatus::kOk || status == QueryStatus::kShed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    service.set_admission_rate(-1.0, i % 2 == 0 ? 1e6 : 0.0, 8.0);
    std::this_thread::yield();
  }
  service.set_admission_rate(-1.0, 0.0);  // off again
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  // Off: admits without counting. On again: a full bucket of `burst`.
  const std::uint64_t shed_before = service.shed_count();
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(service.try_admit(1e9));
  EXPECT_EQ(service.shed_count(), shed_before);
  service.set_admission_rate(2e9, 1.0, 3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(service.try_admit(2e9)) << i;
  EXPECT_FALSE(service.try_admit(2e9));
  EXPECT_EQ(service.shed_count(), shed_before + 1);
}

TEST(ZipfSamplerTest, DeterministicAndSkewed) {
  const ZipfSampler zipf(100, 1.1);
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  std::vector<std::size_t> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t a = zipf.sample(rng_a);
    ASSERT_EQ(a, zipf.sample(rng_b));  // same seed, same sequence
    ASSERT_LT(a, 100u);
    ++counts[a];
  }
  // Rank 0 dominates rank 50 heavily under s = 1.1.
  EXPECT_GT(counts[0], 10 * std::max<std::size_t>(counts[50], 1));
}

TEST(LoadGen, ChecksumIdenticalAcrossThreadCounts) {
  // The acceptance criterion: bit-identical query *results* for the same
  // seed at 1 and 8 threads (timings may differ).
  const auto entries = three_entries();
  LoadGenConfig load;
  load.queries = 5000;
  load.seed = 123;

  LoadTestReport reports[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    ServeConfig config;
    config.shards = 4;
    QueryService service(config);
    service.publish(std::vector<SnapshotEntry>(entries));
    util::ThreadPool pool(thread_counts[i]);
    reports[i] = run_loadtest(service, load,
                              thread_counts[i] > 1 ? &pool : nullptr);
  }
  EXPECT_EQ(reports[0].checksum, reports[1].checksum);
  EXPECT_EQ(reports[0].ok, reports[1].ok);
  EXPECT_EQ(reports[0].not_found, reports[1].not_found);
  EXPECT_EQ(reports[0].shed, 0u);
  EXPECT_EQ(reports[1].shed, 0u);
  EXPECT_EQ(reports[0].issued, 5000u);
  EXPECT_GT(reports[0].ok, 0u);
}

TEST(LoadGen, OpenLoopShedIsDeterministicAndBoundsAdmission) {
  const auto entries = three_entries();
  LoadGenConfig load;
  load.queries = 4000;
  load.seed = 9;
  load.offered_qps = 100000.0;  // far above the admission cap

  LoadTestReport reports[2];
  const std::size_t thread_counts[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    ServeConfig config;
    config.shards = 2;
    config.admission_rate_qps = 25000.0;  // a quarter of offered
    config.admission_burst = 64.0;
    QueryService service(config);
    service.publish(std::vector<SnapshotEntry>(entries));
    util::ThreadPool pool(thread_counts[i]);
    reports[i] = run_loadtest(service, load,
                              thread_counts[i] > 1 ? &pool : nullptr);
  }
  EXPECT_EQ(reports[0].checksum, reports[1].checksum);
  EXPECT_EQ(reports[0].shed, reports[1].shed);
  EXPECT_EQ(reports[0].ok, reports[1].ok);
  // Offered 4x the admitted rate: roughly three quarters shed.
  EXPECT_GT(reports[0].shed, reports[0].issued / 2);
  EXPECT_GT(reports[0].ok, 0u);
  EXPECT_EQ(reports[0].ok + reports[0].not_found + reports[0].shed,
            reports[0].issued);
}

TEST(LoadGen, QueriesDependOnlyOnSeed) {
  const Snapshot snapshot(1, three_entries());
  LoadGenConfig load;
  load.queries = 200;
  load.seed = 4;
  const auto a = generate_queries(snapshot, load);
  const auto b = generate_queries(snapshot, load);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].game, b[i].game);
    EXPECT_EQ(a[i].location, b[i].location);
    EXPECT_DOUBLE_EQ(a[i].param, b[i].param);
  }
  load.seed = 5;
  const auto c = generate_queries(snapshot, load);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != c[i].kind || a[i].location != c[i].location ||
        a[i].param != c[i].param) {
      any_different = true;
      break;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(SnapshotIo, RoundTripsBitExactly) {
  auto entries = three_entries();
  entries[0].anomaly_flagged = true;
  entries[0].shared_anomalies = 2;
  entries[0].server_city = "Frankfurt am Main";
  entries[0].avg_corrected_distance_km = 123.456789012345;
  entries[1].sorted_values = {0.1, 1.0 / 3.0, 2.5000000000000004, 47.25};
  entries[1].samples = entries[1].sorted_values.size();
  const Snapshot original(7, std::move(entries));

  std::ostringstream out;
  save_snapshot(original, out);
  std::istringstream in(out.str());
  const SnapshotPtr restored = load_snapshot(in);

  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->epoch(), 7u);
  ASSERT_EQ(restored->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.entries()[i];
    const auto& b = restored->entries()[i];
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.location, b.location);
    EXPECT_EQ(a.game, b.game);
    EXPECT_EQ(a.streamers, b.streamers);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.anomaly_flagged, b.anomaly_flagged);
    EXPECT_EQ(a.shared_anomalies, b.shared_anomalies);
    EXPECT_EQ(a.server_city, b.server_city);
    // %.17g round-trips doubles exactly — restored snapshots answer
    // queries bit-identically.
    EXPECT_EQ(a.mean_ms, b.mean_ms);
    EXPECT_EQ(a.box.p5, b.box.p5);
    EXPECT_EQ(a.box.p95, b.box.p95);
    EXPECT_EQ(a.avg_corrected_distance_km, b.avg_corrected_distance_km);
    ASSERT_EQ(a.sorted_values.size(), b.sorted_values.size());
    for (std::size_t j = 0; j < a.sorted_values.size(); ++j) {
      EXPECT_EQ(a.sorted_values[j], b.sorted_values[j]) << i << ":" << j;
    }
  }

  // Served answers agree bit-for-bit between original and restored.
  QueryService service_a(ServeConfig{});
  QueryService service_b(ServeConfig{});
  service_a.publish(std::make_shared<const Snapshot>(original));
  service_b.publish(restored);
  LoadGenConfig load;
  load.queries = 2000;
  load.seed = 31;
  const auto report_a = run_loadtest(service_a, load, nullptr);
  const auto report_b = run_loadtest(service_b, load, nullptr);
  EXPECT_EQ(report_a.checksum, report_b.checksum);

  std::istringstream garbage("not a snapshot");
  EXPECT_THROW((void)load_snapshot(garbage), std::invalid_argument);
}

// ------------------------------------------------------------- range kinds --

TEST(QueryServiceTest, RangeKindsAnswerFromTimeSeriesStore) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  geo::Location de;
  de.country = "DE";
  const std::string key = entry_key(de, "lol");
  for (int day = 0; day < 10; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      store.append(key, day * kDayMs + hour * 3'600'000,
                   40.0 + static_cast<double>(day));
    }
    store.advance_to((day + 1) * kDayMs);
  }

  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.kind = QueryKind::kRangeMean;
  query.location = de;
  query.game = "lol";
  query.t0_ms = 0;
  query.t1_ms = 10 * kDayMs;
  query.window_ms = kDayMs;
  QueryResponse response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.series.size(), 10u);
  EXPECT_DOUBLE_EQ(response.series.front().value, 40.0);
  EXPECT_DOUBLE_EQ(response.series.back().value, 49.0);
  EXPECT_DOUBLE_EQ(response.value, response.series.back().value);
  for (std::size_t day = 0; day < response.series.size(); ++day) {
    EXPECT_EQ(response.series[day].count, 24u) << day;
    EXPECT_EQ(response.series[day].t_ms,
              static_cast<std::int64_t>(day) * kDayMs);
  }

  // Identical repeat is served from the shard cache; the answer is equal.
  const QueryResponse cached = service.query(query);
  EXPECT_TRUE(cached.cached);
  EXPECT_EQ(hash_response(7, cached), hash_response(7, response));

  query.kind = QueryKind::kRangeCount;
  response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_DOUBLE_EQ(response.value, 24.0);

  query.kind = QueryKind::kRangePercentile;
  query.param = 99.0;
  response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_NEAR(response.series.back().value, 49.0, 0.5);

  // Week-over-week drift at day 10: [d3,d10) mean-of-days minus [d-4,d3).
  query.kind = QueryKind::kRangeDrift;
  query.t1_ms = 10 * kDayMs;
  response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_GT(response.value, 0.0);  // latency ramped up week over week

  // A key the store has never seen -> kNotFound, not a zero answer.
  query.kind = QueryKind::kRangeMean;
  query.game = "unknown-game";
  EXPECT_EQ(service.query(query).status, QueryStatus::kNotFound);

  // Degenerate window -> invalid_argument propagates (caller bug).
  query.game = "lol";
  query.window_ms = 0;
  EXPECT_THROW((void)service.query(query), std::invalid_argument);
}

TEST(QueryServiceTest, RangeKindsWithoutStoreAreUnavailable) {
  QueryService service(ServeConfig{});
  service.publish(three_entries());
  Query query;
  query.kind = QueryKind::kRangeMean;
  query.location.country = "DE";
  query.game = "lol";
  query.t1_ms = 86'400'000;
  EXPECT_EQ(service.query(query).status, QueryStatus::kUnavailable);
}

TEST(QueryServiceTest, RangeCacheInvalidatesWhenStoreAdvances) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  geo::Location de;
  de.country = "DE";
  const std::string key = entry_key(de, "lol");
  store.append(key, 1'000, 10.0);

  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.kind = QueryKind::kRangeCount;
  query.location = de;
  query.game = "lol";
  query.t0_ms = 0;
  query.t1_ms = kDayMs;
  query.window_ms = kDayMs;
  QueryResponse response = service.query(query);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_DOUBLE_EQ(response.value, 1.0);

  // New appends bump the store version; the cached count must not survive.
  store.append(key, 2'000, 11.0);
  response = service.query(query);
  EXPECT_FALSE(response.cached);
  EXPECT_DOUBLE_EQ(response.value, 2.0);
}

TEST(QueryServiceTest, FailedRangeReadIsNotCached) {
  fault::FaultInjector injector(
      fault::FaultPlan::parse("tsdb.read=error@1:max=1"));
  tsdb::TsdbConfig tsdb_config;
  tsdb_config.injector = &injector;
  tsdb::TimeSeriesStore store(tsdb_config);
  geo::Location de;
  de.country = "DE";
  store.append(entry_key(de, "lol"), 1'000, 10.0);

  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.kind = QueryKind::kRangeCount;
  query.location = de;
  query.game = "lol";
  query.t1_ms = 86'400'000;
  EXPECT_EQ(service.query(query).status, QueryStatus::kUnavailable);
  // Same key, same store version: the retry reads the store again.
  const QueryResponse retry = service.query(query);
  EXPECT_EQ(retry.status, QueryStatus::kOk);
  EXPECT_FALSE(retry.cached);
  EXPECT_DOUBLE_EQ(retry.value, 1.0);
}

TEST(QueryServiceTest, RangeCacheHitSurvivesPublishWithNewEpoch) {
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  geo::Location de;
  de.country = "DE";
  store.append(entry_key(de, "lol"), 1'000, 10.0);

  obs::MetricsRegistry registry;
  ServeConfig config;
  config.tsdb = &store;
  config.metrics = &registry;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.kind = QueryKind::kRangeMean;
  query.location = de;
  query.game = "lol";
  query.t1_ms = 86'400'000;
  const QueryResponse before = service.query(query);
  ASSERT_EQ(before.status, QueryStatus::kOk);
  EXPECT_FALSE(before.cached);
  EXPECT_EQ(before.epoch, 1u);

  // A publish leaves the range LRU alone: the store did not change, so the
  // cached series is still the answer, stamped with the new epoch.
  service.publish(three_entries());
  const QueryResponse after = service.query(query);
  EXPECT_TRUE(after.cached);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(hash_response(0, after), hash_response(0, before));
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.cache_misses(), 1u);
  EXPECT_EQ(registry.counter("tero.serve.cache_hits").value(), 1u);
}

TEST(QueryServiceTest, DefaultServiceMatchesUncachedService) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  const auto entries = three_entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int hour = 0; hour < 48; ++hour) {
      store.append(entries[i].key, hour * 3'600'000,
                   entries[i].sorted_values[hour % 5]);
    }
  }

  ServeConfig cached_config;
  cached_config.tsdb = &store;
  ServeConfig uncached_config = cached_config;
  uncached_config.cache_capacity = 0;
  QueryService cached(cached_config);
  QueryService uncached(uncached_config);

  std::vector<Query> queries;
  for (const auto& entry : entries) {
    Query query;
    query.location = entry.location;
    query.game = entry.game;
    query.t1_ms = 3 * kDayMs;
    for (const QueryKind kind :
         {QueryKind::kPercentile, QueryKind::kMean, QueryKind::kCount,
          QueryKind::kEcdf, QueryKind::kTopK, QueryKind::kRangeCount,
          QueryKind::kRangeMean, QueryKind::kRangePercentile,
          QueryKind::kRangeDrift}) {
      query.kind = kind;
      query.param = kind == QueryKind::kEcdf ? 60.0 : 90.0;
      queries.push_back(query);
    }
  }
  const auto run = [&queries](QueryService& service,
                              std::vector<std::uint64_t>& hashes,
                              std::vector<std::uint64_t>& epochs) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const QueryResponse response = service.query(queries[i]);
        hashes.push_back(hash_response(i, response));
        epochs.push_back(response.epoch);
      }
    }
  };

  std::vector<std::uint64_t> cached_hashes, uncached_hashes;
  std::vector<std::uint64_t> cached_epochs, uncached_epochs;
  const auto both = [&] {
    run(cached, cached_hashes, cached_epochs);
    run(uncached, uncached_hashes, uncached_epochs);
  };
  cached.publish(three_entries());
  uncached.publish(three_entries());
  both();
  // A publish with different values: point answers move, range answers
  // stay cached but carry the new epoch.
  std::vector<SnapshotEntry> next = {
      make_entry("DE", "lol", {31, 33, 35, 37, 39}),
      make_entry("FR", "lol", {40, 45, 50, 55, 60}),
      make_entry("BR", "lol", {90, 95, 100, 105, 200})};
  cached.publish(std::vector<SnapshotEntry>(next));
  uncached.publish(std::move(next));
  both();
  // A tsdb append mints new range keys.
  store.append(entries[0].key, 60 * 3'600'000, 500.0);
  both();

  EXPECT_GT(cached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(cached_hashes, uncached_hashes);
  EXPECT_EQ(cached_epochs, uncached_epochs);
  EXPECT_EQ(cached_epochs.back(), 2u);
}

}  // namespace
TEST(QueryServiceTest, RangeAnswerStableAcrossSealAndCompaction) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TsdbConfig tsdb_config;
  tsdb_config.compact_fanin = 2;
  tsdb_config.retention_ms = 3 * kDayMs;
  tsdb::TimeSeriesStore store(tsdb_config);
  geo::Location de;
  de.country = "DE";
  const std::string key = entry_key(de, "lol");
  for (std::int64_t day = 0; day < 2; ++day) {
    for (std::int64_t hour = 0; hour < 24; ++hour) {
      store.append(key, day * kDayMs + hour * 3'600'000,
                   30.0 + static_cast<double>(day * 24 + hour));
    }
  }

  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);
  service.publish(three_entries());

  Query query;
  query.location = de;
  query.game = "lol";
  query.t0_ms = 0;
  query.t1_ms = 2 * kDayMs;
  query.window_ms = kDayMs;
  const std::vector<QueryKind> kinds = {
      QueryKind::kRangeCount, QueryKind::kRangeMean, QueryKind::kRangePercentile};
  const auto hashes = [&] {
    std::vector<std::uint64_t> out;
    for (const QueryKind kind : kinds) {
      query.kind = kind;
      query.param = kind == QueryKind::kRangePercentile ? 90.0 : 0.0;
      const QueryResponse response = service.query(query);
      EXPECT_EQ(response.status, QueryStatus::kOk);
      out.push_back(hash_response(0, response));
    }
    return out;
  };

  // Head only, then one sealed day, then two sealed days merged by
  // compaction: the samples move between tiers, the answers do not.
  const auto head = hashes();
  store.advance_to(kDayMs);
  EXPECT_EQ(store.stats().head_samples, 24u);
  EXPECT_EQ(hashes(), head);
  store.advance_to(2 * kDayMs);
  EXPECT_EQ(store.stats().head_samples, 0u);
  EXPECT_EQ(store.stats().segments, 1u);
  EXPECT_EQ(hashes(), head);

  // Retention is the one tier move that removes data: once both days fall
  // behind the horizon, the same query finds no samples.
  store.advance_to(6 * kDayMs);
  EXPECT_EQ(store.stats().segments, 0u);
  query.kind = QueryKind::kRangeCount;
  query.param = 0.0;
  EXPECT_EQ(service.query(query).status, QueryStatus::kNotFound);
}

/// What QueryService must answer, built without it: answer() for snapshot
/// kinds, and a response assembled from store.range() / store.drift() for
/// range kinds (every key queried has samples, so range status is kOk).
QueryResponse reference_answer(const Query& query, const Snapshot& snapshot,
                               const tsdb::TimeSeriesStore& store) {
  if (!is_range_kind(query.kind)) return answer(query, snapshot);
  QueryResponse response;
  response.status = QueryStatus::kOk;
  response.epoch = snapshot.epoch();
  const std::string key = entry_key(query.location, query.game);
  if (query.kind == QueryKind::kRangeDrift) {
    response.value = store.drift(key, query.t1_ms, query.param);
    return response;
  }
  tsdb::RangeQuery range;
  range.key = key;
  range.t0_ms = query.t0_ms;
  range.t1_ms = query.t1_ms;
  range.window_ms = query.window_ms;
  range.pct = query.param;
  range.agg = query.kind == QueryKind::kRangeCount  ? tsdb::RangeAgg::kCount
              : query.kind == QueryKind::kRangeMean ? tsdb::RangeAgg::kMean
                                                    : tsdb::RangeAgg::kPercentile;
  response.series = store.range(range);
  response.value = response.series.back().value;
  return response;
}

TEST(QueryServiceTest, EveryKindMatchesReferenceAcrossPublishAndAppend) {
  constexpr std::int64_t kDayMs = 86'400'000;
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  const auto entries = three_entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (int hour = 0; hour < 48; ++hour) {
      store.append(entries[i].key, hour * 3'600'000,
                   entries[i].sorted_values[hour % 5]);
    }
  }
  ServeConfig config;
  config.tsdb = &store;
  QueryService service(config);

  std::vector<Query> queries;
  for (const auto& entry : entries) {
    Query query;
    query.location = entry.location;
    query.game = entry.game;
    query.t1_ms = 3 * kDayMs;
    for (const QueryKind kind :
         {QueryKind::kPercentile, QueryKind::kMean, QueryKind::kCount,
          QueryKind::kEcdf, QueryKind::kTopK, QueryKind::kRangeCount,
          QueryKind::kRangeMean, QueryKind::kRangePercentile,
          QueryKind::kRangeDrift}) {
      query.kind = kind;
      query.param = kind == QueryKind::kEcdf ? 60.0 : 90.0;
      queries.push_back(query);
    }
  }
  // Served twice per stage, so the second pass answers range kinds from the
  // shard cache; returns the stage's response hashes.
  const auto check = [&](const std::string& stage) {
    std::vector<std::uint64_t> hashes;
    const SnapshotPtr snapshot = service.snapshot();
    for (int repeat = 0; repeat < 2; ++repeat) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const QueryResponse served = service.query(queries[i]);
        const QueryResponse expected =
            reference_answer(queries[i], *snapshot, store);
        EXPECT_EQ(served.status, QueryStatus::kOk) << stage << " #" << i;
        EXPECT_EQ(hash_response(i, served), hash_response(i, expected))
            << stage << " #" << i;
        EXPECT_EQ(served.epoch, expected.epoch) << stage << " #" << i;
        hashes.push_back(hash_response(i, served));
      }
    }
    return hashes;
  };

  service.publish(three_entries());
  const auto first = check("epoch 1");
  // A publish with different values: point answers move, range answers
  // keep their series and carry the new epoch.
  service.publish({make_entry("DE", "lol", {31, 33, 35, 37, 39}),
                   make_entry("FR", "lol", {40, 45, 50, 55, 60}),
                   make_entry("BR", "lol", {90, 95, 100, 105, 200})});
  const auto second = check("epoch 2");
  EXPECT_NE(first, second);
  EXPECT_EQ(service.epoch(), 2u);
  // A tsdb append lands in the next range answer.
  store.append(entries[0].key, 60 * 3'600'000, 500.0);
  EXPECT_NE(second, check("after append"));
}

}  // namespace tero::serve
