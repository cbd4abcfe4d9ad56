#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "tsdb/store.hpp"
#include "serve/snapshot_io.hpp"
#include "stream/channel.hpp"
#include "stream/checkpoint.hpp"
#include "stream/live_view.hpp"
#include "stream/pipeline.hpp"
#include "stream/schedule.hpp"
#include "stream/window.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/pipeline.hpp"
#include "util/rng.hpp"

namespace tero::stream {
namespace {

// ---------------------------------------------------------------- channel --

TEST(Channel, FifoAndCapacity) {
  Channel<int> channel(3);
  EXPECT_EQ(channel.capacity(), 3u);
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  EXPECT_TRUE(channel.push(3));
  EXPECT_EQ(channel.size(), 3u);  // full: a fourth push would block
  EXPECT_EQ(channel.pop(), 1);
  EXPECT_EQ(channel.pop(), 2);
  EXPECT_EQ(channel.pop(), 3);
  EXPECT_EQ(channel.size(), 0u);
  const ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.max_depth, 3u);
  EXPECT_EQ(stats.stalls, 0u);
  // Nothing waited, so no blocked time was recorded on either side.
  EXPECT_EQ(stats.push_blocked_ns, 0u);
  EXPECT_EQ(stats.pop_blocked_ns, 0u);
}

TEST(Channel, CloseDrainsThenEnds) {
  Channel<int> channel(8);
  EXPECT_TRUE(channel.push(1));
  EXPECT_TRUE(channel.push(2));
  channel.close();
  EXPECT_FALSE(channel.push(3));  // producers see closed
  EXPECT_TRUE(channel.closed());
  EXPECT_EQ(channel.pop(), 1);  // consumers drain the backlog...
  EXPECT_EQ(channel.pop(), 2);
  EXPECT_FALSE(channel.pop().has_value());  // ...then get end-of-stream
}

TEST(Channel, BlockingPushCountsStallAndRecovers) {
  obs::MetricsRegistry registry;
  auto& stalls = registry.counter("tero.stream.backpressure_stalls");
  Channel<int> channel(1, nullptr, &stalls);
  EXPECT_TRUE(channel.push(1));
  std::thread producer([&] { EXPECT_TRUE(channel.push(2)); });
  // The producer is blocked on the full channel; popping frees it.
  while (channel.stats().stalls == 0) std::this_thread::yield();
  EXPECT_EQ(channel.pop(), 1);
  producer.join();
  EXPECT_EQ(channel.pop(), 2);
  const ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.popped, 2u);
  EXPECT_EQ(stats.stalls, 1u);
  // The stall is visible only once the producer waits (it releases the
  // lock there), so that wait really happened and was timed.
  EXPECT_GT(stats.push_blocked_ns, 0u);
  EXPECT_LE(stats.max_depth, channel.capacity());
  EXPECT_EQ(stalls.value(), 1u);
}

TEST(Channel, MpscDeliversEverything) {
  Channel<int> channel(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(channel.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    const auto value = channel.pop();
    ASSERT_TRUE(value.has_value());
    ASSERT_FALSE(seen[*value]);
    seen[*value] = true;
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(channel.stats().pushed, channel.stats().popped);
  EXPECT_LE(channel.stats().max_depth, channel.capacity());
}

TEST(Channel, TeardownReleasesBlockedProducersAndConsumers) {
  // Teardown stress (DESIGN.md §11): close() must wake every producer
  // blocked on a full channel and every consumer blocked on an empty one,
  // with no lost wakeups, double-frees, or racy reads — the test is run
  // under TSan in CI. Repeat to give the race a real chance to fire.
  for (int round = 0; round < 25; ++round) {
    Channel<int> channel(2);
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    std::atomic<int> popped{0};
    std::atomic<int> rejected_pushes{0};
    std::vector<std::thread> workers;
    for (int p = 0; p < kProducers; ++p) {
      workers.emplace_back([&channel, &rejected_pushes] {
        // Push until the close rejects us, so every producer is guaranteed
        // to experience the teardown (blocked or mid-push).
        for (int i = 0; channel.push(i); ++i) {
        }
        ++rejected_pushes;
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      workers.emplace_back([&channel, &popped] {
        // Drain until end-of-stream; after the close this blocks on the
        // emptying channel and must still wake up cleanly.
        while (channel.pop().has_value()) ++popped;
      });
    }
    // Let the pipeline reach a steady blocked state, then tear it down.
    while (channel.stats().popped < 10) std::this_thread::yield();
    channel.close();
    for (auto& worker : workers) worker.join();
    // Every producer that lost its push saw `false`; every consumer got a
    // clean end-of-stream; whatever was accepted before the close was
    // delivered or still counted.
    EXPECT_EQ(rejected_pushes.load(), kProducers);
    const ChannelStats stats = channel.stats();
    EXPECT_EQ(stats.popped, static_cast<std::uint64_t>(popped.load()));
    EXPECT_LE(stats.popped, stats.pushed);
    EXPECT_FALSE(channel.pop().has_value());  // stays closed and drained
  }
}

// ---------------------------------------------------------------- windows --

TEST(WindowAggregate, WelfordMatchesDirectComputation) {
  WindowAggregate agg(0.01);
  const std::vector<double> values{12.0, 47.5, 33.0, 88.0, 21.0, 47.5};
  double sum = 0.0;
  for (const double v : values) {
    agg.add(v);
    sum += v;
  }
  EXPECT_EQ(agg.count(), values.size());
  EXPECT_NEAR(agg.mean(), sum / values.size(), 1e-12);
  double m2 = 0.0;
  for (const double v : values) {
    m2 += (v - agg.mean()) * (v - agg.mean());
  }
  EXPECT_NEAR(agg.m2(), m2, 1e-9);
  EXPECT_NEAR(agg.sketch().quantile(0.5), 40.0, 8.0);
}

TEST(WindowAggregate, MergeIsDeterministicAndCorrect) {
  const auto fill = [](WindowAggregate& agg, int from, int to) {
    for (int i = from; i < to; ++i) agg.add(10.0 + (i % 37));
  };
  WindowAggregate a1(0.01), b1(0.01), a2(0.01), b2(0.01);
  fill(a1, 0, 500);
  fill(b1, 500, 900);
  fill(a2, 0, 500);
  fill(b2, 500, 900);
  a1.merge(b1);
  a2.merge(b2);
  // Bit-identical across repetitions (fixed evaluation order).
  EXPECT_EQ(a1.count(), a2.count());
  EXPECT_EQ(a1.mean(), a2.mean());
  EXPECT_EQ(a1.m2(), a2.m2());
  // And statistically correct against a single sequential fold.
  WindowAggregate sequential(0.01);
  fill(sequential, 0, 900);
  EXPECT_EQ(a1.count(), sequential.count());
  EXPECT_NEAR(a1.mean(), sequential.mean(), 1e-9);
  EXPECT_NEAR(a1.variance(), sequential.variance(), 1e-6);
  EXPECT_EQ(a1.sketch().count(), sequential.sketch().count());
  EXPECT_EQ(a1.sketch().quantile(0.5), sequential.sketch().quantile(0.5));
}

TEST(WindowAggregate, RestoreRoundTripsBitIdentically) {
  WindowAggregate original(0.02);
  for (int i = 0; i < 300; ++i) original.add(5.0 + 3.0 * (i % 53));
  WindowAggregate restored(0.02);
  restored.restore(original.count(), original.mean(), original.m2(),
                   original.sketch().export_buckets(),
                   original.sketch().underflow());
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.mean(), original.mean());
  EXPECT_EQ(restored.m2(), original.m2());
  for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    EXPECT_EQ(restored.sketch().quantile(q), original.sketch().quantile(q));
  }
}

TEST(Watermark, TracksMinOverOpenSourcesMonotonically) {
  WatermarkTracker wm;
  EXPECT_LT(wm.watermark(), 0.0);  // -infinity before any source opens
  wm.open(0, 100.0);
  EXPECT_EQ(wm.watermark(), 100.0);
  wm.open(1, 50.0);  // a second, older source holds the min back...
  EXPECT_EQ(wm.watermark(), 100.0);  // ...but W never regresses
  wm.update(1, 150.0);
  EXPECT_EQ(wm.watermark(), 100.0);  // min over open is source 0 at 100
  wm.update(0, 120.0);
  EXPECT_EQ(wm.watermark(), 120.0);  // min advanced to 120
  wm.close(0);
  EXPECT_EQ(wm.watermark(), 150.0);  // only source 1 (at 150) stays open
  wm.close(1);
  EXPECT_EQ(wm.open_sources(), 0u);
  EXPECT_EQ(wm.watermark(), 150.0);  // closing the last source holds W
  EXPECT_EQ(window_of(150.0, 100.0), 1);
  EXPECT_EQ(window_of(-0.5, 100.0), -1);
}

// ---------------------------------------------------------------- fixture --

struct Scenario {
  synth::World world;
  std::vector<synth::TrueStream> streams;
};

Scenario make_scenario(std::size_t streamers = 40, int days = 2) {
  synth::WorldConfig world_config;
  world_config.seed = 1;
  world_config.num_streamers = streamers;
  world_config.p_twitter = 0.8;
  synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = days;
  synth::SessionGenerator generator(world, behavior, 2);
  auto streams = generator.generate();
  return {std::move(world), std::move(streams)};
}

StreamConfig base_config(std::size_t threads) {
  StreamConfig config;
  config.tero.threads = threads;
  config.window_size_s = 21600.0;
  config.publish_every_windows = 0;
  return config;
}

std::string snapshot_bytes(std::uint64_t epoch,
                           const std::vector<serve::SnapshotEntry>& entries) {
  std::ostringstream out;
  const serve::Snapshot snapshot(epoch, entries);
  serve::save_snapshot(snapshot, out);
  return out.str();
}

// -------------------------------------------------------------- live view --

/// One running aggregate rebuilt from scratch: what the sink published
/// before the live view cached entries.
serve::SnapshotEntry rebuilt_entry(const RunningKey& key,
                                   const WindowAggregate& agg,
                                   const std::set<std::string>& streamers) {
  serve::SnapshotEntry entry;
  entry.location = key.location;
  entry.game = key.game;
  entry.key = serve::entry_key(key.location, key.game);
  entry.streamers = streamers.size();
  entry.samples = static_cast<std::size_t>(agg.count());
  entry.mean_ms = agg.mean();
  entry.box.p5 = agg.sketch().quantile(0.05);
  entry.box.p25 = agg.sketch().quantile(0.25);
  entry.box.p50 = agg.sketch().quantile(0.50);
  entry.box.p75 = agg.sketch().quantile(0.75);
  entry.box.p95 = agg.sketch().quantile(0.95);
  return entry;
}

TEST(LiveView, IncrementalEntriesEqualFromScratchRebuild) {
  // Keys whose RunningKey order differs from their snapshot-key order
  // ("game|country|region|city"), so emission order is really exercised.
  const std::vector<RunningKey> keys = {
      {{"", "", "Poland"}, "Dota 2"},
      {{"", "", "Poland"}, "League of Legends"},
      {{"", "Illinois", "United States"}, "Dota 2"},
      {{"Chicago", "Illinois", "United States"}, "Apex Legends"},
      {{"", "", "Germany"}, "League of Legends"},
      {{"", "Bavaria", "Germany"}, "Dota 2"},
      {{"", "", "Brazil"}, "Apex Legends"},
      {{"", "", "Australia"}, "Dota 2"},
      {{"Paris", "", "France"}, "League of Legends"},
      {{"", "", "Japan"}, "Valorant"},
  };
  struct Reference {
    std::unique_ptr<WindowAggregate> agg;
    std::set<std::string> streamers;
  };
  std::map<RunningKey, Reference> reference;
  auto live = std::make_unique<LiveView>();
  util::Rng rng(20240613);
  for (int batch = 0; batch < 60; ++batch) {
    const auto merges = rng.uniform_int(0, 8);
    for (std::int64_t m = 0; m < merges; ++m) {
      const RunningKey& key =
          keys[static_cast<std::size_t>(rng.uniform_int(0, keys.size() - 1))];
      WindowAggregate window(0.01);
      std::set<std::string> streamers;
      const auto points = rng.uniform_int(1, 40);
      for (std::int64_t p = 0; p < points; ++p) {
        window.add(rng.uniform(5.0, 250.0));
        streamers.insert("s" + std::to_string(rng.uniform_int(0, 30)));
      }
      live->merge(key, window, streamers);
      Reference& ref = reference[key];
      if (ref.agg == nullptr) ref.agg = std::make_unique<WindowAggregate>(0.01);
      ref.agg->merge(window);
      ref.streamers.insert(streamers.begin(), streamers.end());
    }
    if (batch == 30) {
      // Checkpoint and resume: a view restored from the saved running state
      // must carry on exactly like the original.
      auto restored = std::make_unique<LiveView>();
      for (const auto& [key, running] : live->running()) {
        auto agg = std::make_unique<WindowAggregate>(0.01);
        agg->restore(running.agg->count(), running.agg->mean(),
                     running.agg->m2(), running.agg->sketch().export_buckets(),
                     running.agg->sketch().underflow());
        restored->restore(key, std::move(agg), running.streamers);
      }
      live = std::move(restored);
    }

    std::vector<serve::SnapshotEntry> expected;
    for (const auto& [key, ref] : reference) {
      expected.push_back(rebuilt_entry(key, *ref.agg, ref.streamers));
    }
    std::sort(expected.begin(), expected.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    const auto entries = live->entries();
    ASSERT_EQ(entries.size(), expected.size()) << "batch " << batch;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(entries[i].key, expected[i].key) << "batch " << batch;
    }
    EXPECT_EQ(snapshot_bytes(1, entries), snapshot_bytes(1, expected))
        << "batch " << batch;
  }
  EXPECT_EQ(live->running().size(), keys.size());
}

void expect_same_funnel(const core::Funnel& a, const core::Funnel& b) {
  EXPECT_EQ(a.streamers_total, b.streamers_total);
  EXPECT_EQ(a.streamers_located, b.streamers_located);
  EXPECT_EQ(a.thumbnails, b.thumbnails);
  EXPECT_EQ(a.visible, b.visible);
  EXPECT_EQ(a.ocr_ok, b.ocr_ok);
  EXPECT_EQ(a.retained, b.retained);
  EXPECT_EQ(a.clustered, b.clustered);
}

// ------------------------------------------------------- batch equivalence --

TEST(StreamPipeline, MatchesBatchBitIdenticallyAt1And8Threads) {
  const Scenario scenario = make_scenario();

  core::TeroConfig batch_config;
  batch_config.threads = 1;
  core::Pipeline batch(batch_config);
  const core::Dataset expected = batch.run(scenario.world, scenario.streams);
  const std::string expected_bytes =
      snapshot_bytes(1, serve::entries_from(expected));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    StreamPipeline pipeline(base_config(threads));
    const StreamResult result =
        pipeline.run(scenario.world, scenario.streams);
    EXPECT_FALSE(result.crashed);
    EXPECT_EQ(result.final_epoch, 1u);
    expect_same_funnel(result.dataset.funnel, expected.funnel);
    ASSERT_EQ(result.dataset.entries.size(), expected.entries.size());
    EXPECT_EQ(snapshot_bytes(1, result.final_entries), expected_bytes)
        << "streaming snapshot differs from batch at " << threads
        << " threads";
  }
}

TEST(StreamPipeline, DelaysAndThrottlingDoNotChangeFinalOutput) {
  const Scenario scenario = make_scenario();
  StreamPipeline plain(base_config(4));
  const StreamResult expected =
      plain.run(scenario.world, scenario.streams);

  StreamConfig disturbed = base_config(4);
  disturbed.max_delivery_delay_s = 2 * disturbed.window_size_s;
  disturbed.download_rate = 200.0;
  disturbed.download_burst = 20.0;
  StreamPipeline pipeline(disturbed);
  const StreamResult result = pipeline.run(scenario.world, scenario.streams);

  // Late events exist (delivery delays exceed the window span)...
  EXPECT_GT(result.late_events, 0u);
  // ...but the exact path is unaffected: same bytes, same funnel.
  expect_same_funnel(result.dataset.funnel, expected.dataset.funnel);
  EXPECT_EQ(snapshot_bytes(1, result.final_entries),
            snapshot_bytes(1, expected.final_entries));
}

TEST(StreamPipeline, ReportsBatchSpikesAndSharedAnomaliesExactly) {
  // The outage_monitor scenario (§3.3.2, App. F): one dense region where
  // region-wide events make concurrent per-streamer spikes.
  synth::WorldConfig world_config;
  world_config.seed = 1116;
  world_config.games = {"Call of Duty Warzone"};
  world_config.focus_locations = {
      geo::Location{"", "California", "United States"}};
  world_config.streamers_per_focus = 60;
  world_config.p_twitter = 1.0;
  world_config.p_twitter_backlink = 1.0;
  world_config.p_twitter_location = 1.0;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = 3;
  behavior.shared_events_per_region_day = 0.5;
  behavior.shared_event_magnitude_ms = 45.0;
  behavior.shared_event_duration_s = 1800.0;
  synth::SessionGenerator generator(world, behavior, 1117);
  const auto streams = generator.generate();

  core::TeroConfig batch_config;
  batch_config.p_latency_visible = 1.0;
  core::Pipeline batch(batch_config);
  const core::Dataset expected = batch.run(world, streams);
  std::size_t anomalies = 0;
  for (const auto& aggregate : expected.aggregates) {
    anomalies += aggregate.shared.anomalies.size();
  }
  ASSERT_GT(anomalies, 0u) << "scenario must exercise the App. F test";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    StreamConfig config = base_config(threads);
    config.tero.p_latency_visible = 1.0;
    StreamPipeline pipeline(config);
    const core::Dataset got = pipeline.run(world, streams).dataset;

    ASSERT_EQ(got.entries.size(), expected.entries.size());
    for (std::size_t i = 0; i < got.entries.size(); ++i) {
      const auto& spikes = got.entries[i].clean.spikes;
      const auto& want = expected.entries[i].clean.spikes;
      ASSERT_EQ(spikes.size(), want.size()) << "entry " << i;
      for (std::size_t k = 0; k < spikes.size(); ++k) {
        EXPECT_EQ(spikes[k].start_s, want[k].start_s);
        EXPECT_EQ(spikes[k].end_s, want[k].end_s);
        EXPECT_EQ(spikes[k].peak_latency_ms, want[k].peak_latency_ms);
        EXPECT_EQ(spikes[k].baseline_ms, want[k].baseline_ms);
      }
    }

    ASSERT_EQ(got.aggregates.size(), expected.aggregates.size());
    for (std::size_t a = 0; a < got.aggregates.size(); ++a) {
      const auto& shared = got.aggregates[a].shared;
      const auto& want = expected.aggregates[a].shared;
      EXPECT_EQ(shared.spike_probability, want.spike_probability);
      EXPECT_EQ(shared.sufficient_data, want.sufficient_data);
      ASSERT_EQ(shared.anomalies.size(), want.anomalies.size())
          << "aggregate " << a << " at " << threads << " threads";
      for (std::size_t k = 0; k < shared.anomalies.size(); ++k) {
        EXPECT_EQ(shared.anomalies[k].start_s, want.anomalies[k].start_s);
        EXPECT_EQ(shared.anomalies[k].end_s, want.anomalies[k].end_s);
        EXPECT_EQ(shared.anomalies[k].streamers, want.anomalies[k].streamers);
        EXPECT_EQ(shared.anomalies[k].probability,
                  want.anomalies[k].probability);
      }
    }
  }
}

// ------------------------------------------------------------- live epochs --

TEST(StreamPipeline, PublishesLiveEpochsIntoService) {
  const Scenario scenario = make_scenario();
  serve::ServeConfig serve_config;
  serve::QueryService service(serve_config);

  StreamConfig config = base_config(4);
  config.publish_every_windows = 2;
  config.service = &service;
  StreamPipeline pipeline(config);
  const StreamResult result = pipeline.run(scenario.world, scenario.streams);

  EXPECT_GT(result.epochs_published, 0u);
  EXPECT_GT(result.windows_closed, 0u);
  // The final exact snapshot is published last, one epoch past the lives.
  EXPECT_EQ(result.final_epoch, result.epochs_published + 1);
  EXPECT_EQ(service.epoch(), result.final_epoch);
  const serve::SnapshotPtr published = service.snapshot();
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(snapshot_bytes(result.final_epoch, result.final_entries),
            snapshot_bytes(published->epoch(),
                           {published->entries().begin(),
                            published->entries().end()}));
}

// --------------------------------------------------------------- tsdb sink --

TEST(StreamPipeline, TsdbSinkRecordsWindowMeansBitIdentically) {
  const Scenario scenario = make_scenario();
  std::uint64_t digests[2] = {0, 0};
  std::string layouts[2];
  std::size_t index = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
    StreamConfig config = base_config(threads);
    config.tsdb = &store;
    StreamPipeline pipeline(config);
    const StreamResult result = pipeline.run(scenario.world, scenario.streams);
    EXPECT_FALSE(result.crashed);
    EXPECT_GT(result.windows_closed, 0u);
    const auto stats = store.stats();
    // One sample per non-empty closed window lands in the store.
    EXPECT_GT(stats.head_samples + stats.segment_samples, 0u);
    EXPECT_LE(stats.head_samples + stats.segment_samples,
              result.windows_closed);
    digests[index] = store.dataset_digest();
    layouts[index] = store.segment_layout();
    ++index;
  }
  // The sink closes windows serially in deterministic order, so the
  // historical store's contents are thread-count independent.
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(layouts[0], layouts[1]);
}

// ------------------------------------------------------------ backpressure --

TEST(StreamPipeline, SlowSinkBoundsQueuesAndCountsStalls) {
  const Scenario scenario = make_scenario(24, 1);
  obs::MetricsRegistry registry;

  StreamConfig config = base_config(2);
  config.channel_capacity = 4;
  config.extract_batch = 4;
  config.sink_delay_us = 150;
  config.tero.metrics = &registry;
  StreamPipeline pipeline(config);
  const StreamResult result = pipeline.run(scenario.world, scenario.streams);

  // The slow sink pushed backpressure upstream...
  const std::uint64_t stalls = result.to_extract.stalls +
                               result.to_clean.stalls +
                               result.to_sink.stalls;
  EXPECT_GT(stalls, 0u);
  // ...while every queue stayed within its bound (memory is bounded). The
  // channels carry batches of extract_batch events, so the bound in events
  // is channel_capacity / extract_batch batches.
  const std::size_t capacity_batches =
      config.channel_capacity / config.extract_batch;
  EXPECT_LE(result.to_extract.max_depth, capacity_batches);
  EXPECT_LE(result.to_clean.max_depth, capacity_batches);
  EXPECT_LE(result.to_sink.max_depth, capacity_batches);
  EXPECT_EQ(registry.counter("tero.stream.backpressure_stalls").value(),
            stalls);
  // Metrics wiring: events/windows counters agree with the result struct.
  EXPECT_EQ(registry.counter("tero.stream.events").value(), result.events);
  EXPECT_EQ(registry.counter("tero.stream.windows_closed").value(),
            result.windows_closed);
}

// ------------------------------------------------------- hand-off batching --

/// Every file a run left in `dir`, by name.
std::map<std::string, std::string> files_in(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[file.path().filename().string()] = bytes.str();
  }
  return files;
}

TEST(StreamPipeline, HandoffBatchSizeDoesNotChangeOutput) {
  // extract_batch only sets how many events cross a channel at once, so
  // every output is the same for one event per hand-off, an odd size, the
  // default, and one batch holding the whole schedule, at any thread count.
  const Scenario scenario = make_scenario(24, 2);
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("tero_stream_handoff_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  struct Outputs {
    std::uint64_t dataset_digest = 0;
    std::string snapshot;
    std::uint64_t live_epochs = 0;
    std::uint64_t tsdb_digest = 0;
    std::map<std::string, std::string> checkpoints;
  };
  std::optional<Outputs> expected;
  constexpr std::size_t kWholeSchedule = std::size_t{1} << 20;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, kWholeSchedule}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::filesystem::path dir =
          root / (std::to_string(batch) + "_" + std::to_string(threads));
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      serve::QueryService service{serve::ServeConfig{}};
      tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
      StreamConfig config = base_config(threads);
      config.extract_batch = batch;
      config.publish_every_windows = 2;
      config.checkpoint_every_windows = 2;
      config.checkpoint_dir = dir.string();
      config.service = &service;
      config.tsdb = &store;
      StreamPipeline pipeline(config);
      const StreamResult result =
          pipeline.run(scenario.world, scenario.streams);
      ASSERT_FALSE(result.crashed);
      ASSERT_GT(result.checkpoints_written, 0u);
      ASSERT_GT(result.epochs_published, 0u);
      if (batch == kWholeSchedule) {
        ASSERT_LT(result.thumbnails, batch);
      }

      Outputs got;
      got.dataset_digest = core::dataset_digest(result.dataset);
      got.snapshot = snapshot_bytes(1, result.final_entries);
      got.live_epochs = result.epochs_published;
      got.tsdb_digest = store.dataset_digest();
      got.checkpoints = files_in(dir);
      if (!expected.has_value()) {
        expected = std::move(got);
        continue;
      }
      const std::string where = "batch " + std::to_string(batch) + " at " +
                                std::to_string(threads) + " threads";
      EXPECT_EQ(got.dataset_digest, expected->dataset_digest) << where;
      EXPECT_EQ(got.snapshot, expected->snapshot) << where;
      EXPECT_EQ(got.live_epochs, expected->live_epochs) << where;
      EXPECT_EQ(got.tsdb_digest, expected->tsdb_digest) << where;
      EXPECT_EQ(got.checkpoints, expected->checkpoints) << where;
    }
  }
  std::filesystem::remove_all(root);
}

TEST(StreamPipeline, SourceStallsDoNotChangeOutput) {
  // A stream.source latency fault sleeps the producer mid-batch; the events
  // it already holds go on first. Wall-clock pacing only: same bytes.
  const Scenario scenario = make_scenario(24, 1);
  StreamPipeline plain(base_config(2));
  const StreamResult expected = plain.run(scenario.world, scenario.streams);

  fault::FaultInjector injector(
      fault::FaultPlan::parse("stream.source=latency@0.02:ms=1", 7));
  StreamConfig config = base_config(2);
  config.extract_batch = 16;
  config.tero.injector = &injector;
  StreamPipeline stalled(config);
  const StreamResult result = stalled.run(scenario.world, scenario.streams);
  EXPECT_GT(injector.point("stream.source").fired(), 0u);
  expect_same_funnel(result.dataset.funnel, expected.dataset.funnel);
  EXPECT_EQ(snapshot_bytes(1, result.final_entries),
            snapshot_bytes(1, expected.final_entries));
}

// ------------------------------------------------------------- checkpoints --

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tero_stream_ckpt_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string fresh_dir(const std::string& tag) {
    const auto path = dir_ / tag;
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path.string();
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, FileRoundTripIsExact) {
  const Scenario scenario = make_scenario(24, 1);
  StreamConfig config = base_config(2);
  config.checkpoint_every_windows = 1;
  config.checkpoint_dir = fresh_dir("roundtrip");
  StreamPipeline pipeline(config);
  const StreamResult result = pipeline.run(scenario.world, scenario.streams);
  ASSERT_GT(result.checkpoints_written, 0u);

  const auto latest = latest_checkpoint_id(config.checkpoint_dir);
  ASSERT_TRUE(latest.has_value());
  const CheckpointData loaded =
      read_checkpoint_file(config.checkpoint_dir, *latest);
  EXPECT_EQ(loaded.id, *latest);
  EXPECT_LE(loaded.cursor, loaded.events_total);

  // save -> load -> save must be byte-stable (the serialization is exact).
  std::ostringstream first;
  save_checkpoint(loaded, first);
  std::istringstream back(first.str());
  const CheckpointData reloaded = load_checkpoint(back);
  std::ostringstream second;
  save_checkpoint(reloaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(CheckpointTest, CrashAtEveryBoundaryRecoversBitIdentically) {
  const Scenario scenario = make_scenario(24, 2);

  // Reference: one uninterrupted checkpointed run.
  StreamConfig reference_config = base_config(4);
  reference_config.publish_every_windows = 2;
  reference_config.checkpoint_every_windows = 2;
  reference_config.checkpoint_dir = fresh_dir("reference");
  StreamPipeline reference(reference_config);
  const StreamResult expected =
      reference.run(scenario.world, scenario.streams);
  ASSERT_FALSE(expected.crashed);
  ASSERT_GT(expected.checkpoints_written, 1u);
  const std::string expected_bytes =
      snapshot_bytes(1, expected.final_entries);

  for (std::uint64_t boundary = 1; boundary <= expected.checkpoints_written;
       ++boundary) {
    StreamConfig crash_config = reference_config;
    crash_config.checkpoint_dir =
        fresh_dir("crash" + std::to_string(boundary));
    crash_config.crash_after = boundary;
    StreamPipeline crashing(crash_config);
    const StreamResult crashed =
        crashing.run(scenario.world, scenario.streams);
    EXPECT_TRUE(crashed.crashed);
    EXPECT_EQ(crashed.checkpoints_written, boundary - crashed.resumed_from);

    // Restart from the same directory — at a different thread count, to
    // exercise thread-invariance across the recovery path too.
    StreamConfig resume_config = crash_config;
    resume_config.crash_after = 0;
    resume_config.tero.threads = 1;
    StreamPipeline resuming(resume_config);
    const StreamResult resumed =
        resuming.run(scenario.world, scenario.streams);
    EXPECT_FALSE(resumed.crashed);
    EXPECT_EQ(resumed.resumed_from, boundary);
    EXPECT_EQ(resumed.final_epoch, expected.final_epoch);
    expect_same_funnel(resumed.dataset.funnel, expected.dataset.funnel);
    EXPECT_EQ(snapshot_bytes(1, resumed.final_entries), expected_bytes)
        << "recovery from boundary " << boundary << " diverged";
  }
}

TEST_F(CheckpointTest, ResumeWithAnotherHandoffBatchSizeIsBitIdentical) {
  // A checkpoint records event positions, not batch boundaries, so a run
  // crashed under one batch size resumes under another with the same bytes.
  const Scenario scenario = make_scenario(24, 2);
  StreamConfig config = base_config(1);
  config.extract_batch = 7;
  config.publish_every_windows = 2;
  config.checkpoint_every_windows = 2;
  config.checkpoint_dir = fresh_dir("reference");
  StreamPipeline reference(config);
  const StreamResult expected = reference.run(scenario.world, scenario.streams);
  ASSERT_GT(expected.checkpoints_written, 1u);

  config.checkpoint_dir = fresh_dir("crash");
  config.crash_after = expected.checkpoints_written / 2;
  StreamPipeline crashing(config);
  EXPECT_TRUE(crashing.run(scenario.world, scenario.streams).crashed);

  StreamConfig resume_config = config;
  resume_config.crash_after = 0;
  resume_config.extract_batch = 64;
  resume_config.tero.threads = 4;
  StreamPipeline resuming(resume_config);
  const StreamResult resumed = resuming.run(scenario.world, scenario.streams);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_EQ(resumed.resumed_from, config.crash_after);
  EXPECT_EQ(resumed.final_epoch, expected.final_epoch);
  expect_same_funnel(resumed.dataset.funnel, expected.dataset.funnel);
  EXPECT_EQ(snapshot_bytes(1, resumed.final_entries),
            snapshot_bytes(1, expected.final_entries));
}

}  // namespace
}  // namespace tero::stream
