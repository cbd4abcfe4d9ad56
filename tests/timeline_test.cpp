#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/timeline.hpp"
#include "serve/replay.hpp"
#include "serve/service.hpp"
#include "util/thread_pool.hpp"

namespace tero::obs {
namespace {

TEST(Timeline, ScrapesEveryIntervalBoundaryCrossed) {
  MetricsRegistry registry;
  auto& counter = registry.counter("tero.test.events");
  TimelineConfig config;
  config.scrape_every_ms = 100;
  MetricsTimeline timeline(registry, config);

  counter.add(3);
  timeline.advance_to(50);  // before the first boundary: nothing yet
  EXPECT_EQ(timeline.snapshot_count(), 0u);
  timeline.advance_to(100);
  EXPECT_EQ(timeline.snapshot_count(), 1u);
  EXPECT_EQ(timeline.counter_total("tero.test.events"), 3u);

  // A big jump emits every intermediate snapshot — history has no gaps.
  counter.add(7);
  timeline.advance_to(450);
  EXPECT_EQ(timeline.snapshot_count(), 4u);
  EXPECT_EQ(timeline.snapshot_times(),
            (std::vector<std::uint64_t>{100, 200, 300, 400}));
  // The jump's whole delta lands on the first boundary it crosses.
  EXPECT_DOUBLE_EQ(timeline.increase("tero.test.events", 300), 7.0);
  EXPECT_EQ(timeline.counter_total("tero.test.events"), 10u);
}

TEST(Timeline, FlushCapturesThePartialTail) {
  MetricsRegistry registry;
  auto& counter = registry.counter("tero.test.events");
  TimelineConfig config;
  config.scrape_every_ms = 1000;
  MetricsTimeline timeline(registry, config);

  counter.add(5);
  timeline.advance_to(1000);
  counter.add(2);  // lands in the short tail after the last boundary
  timeline.flush(1300);
  ASSERT_EQ(timeline.snapshot_count(), 2u);
  EXPECT_EQ(timeline.last_scrape_ms(), 1300u);
  EXPECT_EQ(timeline.counter_total("tero.test.events"), 7u);
  // Flushing again at the same time is a no-op (idempotent end-of-run).
  timeline.flush(1300);
  EXPECT_EQ(timeline.snapshot_count(), 2u);
}

TEST(Timeline, DownsamplesAtExactCapacityBoundary) {
  MetricsRegistry registry;
  auto& counter = registry.counter("tero.test.events");
  TimelineConfig config;
  config.scrape_every_ms = 10;
  config.capacity = 4;
  MetricsTimeline timeline(registry, config);

  // Exactly `capacity` snapshots: no downsample yet.
  for (int i = 0; i < 4; ++i) {
    counter.add(1);
    timeline.scrape(static_cast<std::uint64_t>(10 * (i + 1)));
  }
  EXPECT_EQ(timeline.snapshot_count(), 4u);
  EXPECT_EQ(timeline.scrape_interval_ms(), 10u);

  // One more crosses the capacity: adjacent pairs merge, interval doubles.
  counter.add(1);
  timeline.scrape(50);
  EXPECT_EQ(timeline.snapshot_count(), 3u);
  EXPECT_EQ(timeline.scrape_interval_ms(), 20u);
  // The merge keeps the later timestamp of each pair and drops no deltas:
  // prefix sums still recover the exact totals.
  EXPECT_EQ(timeline.snapshot_times(),
            (std::vector<std::uint64_t>{20, 40, 50}));
  EXPECT_EQ(timeline.counter_total("tero.test.events"), 5u);
  EXPECT_DOUBLE_EQ(timeline.increase("tero.test.events", 50), 5.0);
}

TEST(Timeline, RateIsPerSecondOverTheTrailingWindow) {
  MetricsRegistry registry;
  auto& counter = registry.counter("tero.test.events");
  TimelineConfig config;
  config.scrape_every_ms = 1000;
  MetricsTimeline timeline(registry, config);

  counter.add(10);
  timeline.advance_to(1000);
  counter.add(30);
  timeline.advance_to(2000);
  // Last 1 s saw 30 events -> 30/s; the full 2 s saw 40 -> 20/s.
  EXPECT_DOUBLE_EQ(timeline.rate("tero.test.events", 1000), 30.0);
  EXPECT_DOUBLE_EQ(timeline.rate("tero.test.events", 2000), 20.0);
  EXPECT_DOUBLE_EQ(timeline.rate("tero.test.unknown", 1000), 0.0);
}

TEST(Timeline, WindowedQuantileIsolatesTheWindow) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("tero.test.ms", {1.0, 10.0, 100.0});
  TimelineConfig config;
  config.scrape_every_ms = 1000;
  MetricsTimeline timeline(registry, config);

  for (int i = 0; i < 100; ++i) histogram.observe(2.0);  // slow-free era
  timeline.advance_to(1000);
  for (int i = 0; i < 100; ++i) histogram.observe(50.0);  // slow era
  timeline.advance_to(2000);

  // Trailing 1 s saw only the 50 ms samples; the sketch guarantees 1%
  // relative error, so a loose 5% tolerance is safe.
  EXPECT_NEAR(timeline.quantile("tero.test.ms", 0.5, 1000), 50.0, 2.5);
  // The full-history window mixes the eras: its median is the slow-free era.
  EXPECT_NEAR(timeline.quantile("tero.test.ms", 0.25, 2000), 2.0, 0.1);
  EXPECT_EQ(timeline.windowed_count("tero.test.ms", 1000), 100u);
  EXPECT_EQ(timeline.windowed_count("tero.test.ms", 2000), 200u);
  EXPECT_NEAR(timeline.windowed_mean("tero.test.ms", 1000), 50.0, 1e-9);
  EXPECT_NEAR(timeline.windowed_mean("tero.test.ms", 2000), 26.0, 1e-9);
}

TEST(Timeline, PrefixFilterGatesWhichSeriesAreScraped) {
  MetricsRegistry registry;
  registry.counter("tero.loadgen.queries").add(1);
  registry.counter("tero.serve.cache_hits").add(1);
  registry.gauge("tero.loadgen.depth").set(2.0);
  TimelineConfig config;
  config.prefixes = {"tero.loadgen."};
  MetricsTimeline timeline(registry, config);
  timeline.scrape(1000);
  EXPECT_TRUE(timeline.has_series("tero.loadgen.queries"));
  EXPECT_TRUE(timeline.has_series("tero.loadgen.depth"));
  EXPECT_FALSE(timeline.has_series("tero.serve.cache_hits"));
}

TEST(Timeline, SeriesCreatedMidRunJoinLaterSnapshots) {
  // The scrape-series cache keys on the registry's mutation epoch: a series
  // created after the first scrape must still be picked up by the next one.
  MetricsRegistry registry;
  registry.counter("tero.test.first").add(1);
  MetricsTimeline timeline(registry, TimelineConfig{});
  timeline.scrape(1000);
  registry.counter("tero.test.second").add(9);
  timeline.scrape(2000);
  EXPECT_EQ(timeline.counter_total("tero.test.first"), 1u);
  EXPECT_EQ(timeline.counter_total("tero.test.second"), 9u);

  std::ostringstream out;
  timeline.write_json(out);
  const auto parsed = parse_json(out.str());
  const auto& snaps = parsed.at("snapshots").array;
  ASSERT_EQ(snaps.size(), 2u);
  // The late series is absent from the first snapshot, present afterwards.
  EXPECT_FALSE(snaps[0].at("counters").contains("tero.test.second"));
  EXPECT_TRUE(snaps[1].at("counters").contains("tero.test.second"));
}

TEST(Timeline, SurvivesSeriesRemovalBetweenScrapes) {
  // remove() invalidates the registry's pointers; the epoch bump must force
  // the timeline to drop its cached pointer instead of dereferencing it.
  MetricsRegistry registry;
  registry.counter("tero.test.doomed").add(4);
  registry.counter("tero.test.keeper").add(1);
  MetricsTimeline timeline(registry, TimelineConfig{});
  timeline.scrape(1000);
  ASSERT_TRUE(registry.remove("tero.test.doomed"));
  registry.counter("tero.test.keeper").add(2);
  timeline.scrape(2000);
  EXPECT_EQ(timeline.counter_total("tero.test.keeper"), 3u);
  // The removed series keeps its recorded history, frozen at removal.
  EXPECT_EQ(timeline.counter_total("tero.test.doomed"), 4u);
}

TEST(Timeline, PromHistoryPassesTheFormatChecker) {
  MetricsRegistry registry;
  registry.counter("tero.test.events{shard=0}").add(2);
  registry.gauge("tero.test.depth").set(1.5);
  registry.histogram("tero.test.ms", {1.0, 10.0}).observe(3.0);
  MetricsTimeline timeline(registry, TimelineConfig{});
  timeline.scrape(1000);
  timeline.scrape(2000);
  std::ostringstream out;
  timeline.write_prom(out);
  EXPECT_EQ(validate_prom_text(out.str()), "");
  // Spot-check the shape: timestamped samples, labeled counter, histogram
  // family expansion.
  EXPECT_NE(out.str().find("tero_test_events{shard=\"0\"} 2 1000"),
            std::string::npos);
  EXPECT_NE(out.str().find("tero_test_ms_bucket"), std::string::npos);
}

TEST(Timeline, RejectsDegenerateConfigs) {
  MetricsRegistry registry;
  TimelineConfig zero_interval;
  zero_interval.scrape_every_ms = 0;
  EXPECT_THROW(MetricsTimeline(registry, zero_interval),
               std::invalid_argument);
  TimelineConfig tiny_capacity;
  tiny_capacity.capacity = 1;
  EXPECT_THROW(MetricsTimeline(registry, tiny_capacity),
               std::invalid_argument);
}

TEST(Timeline, LoadtestTelemetryBitIdenticalAcrossThreadCounts) {
  // The end-to-end determinism contract (DESIGN.md §13): the timeline JSON
  // a loadtest produces is byte-identical at 1 and 8 threads because every
  // scraped series is written from the serial virtual-time replay.
  const auto run = [](std::size_t threads) {
    obs::MetricsRegistry registry;
    TimelineConfig config;
    config.prefixes = {"tero.loadgen."};
    MetricsTimeline timeline(registry, config);
    serve::QueryService service{serve::ServeConfig{}};
    service.publish(std::vector<serve::SnapshotEntry>{});
    serve::LoadGenConfig load;
    load.queries = 5000;
    load.seed = 7;
    load.metrics = &registry;
    load.timeline = &timeline;
    load.exemplar_seed = 7;
    util::ThreadPool pool(threads);
    (void)serve::run_loadtest(service, load, threads > 1 ? &pool : nullptr);
    std::ostringstream out;
    timeline.write_json(out);
    return out.str();
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace tero::obs
