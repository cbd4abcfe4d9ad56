// Streaming ingestion benchmark (DESIGN.md §10): end-to-end event throughput
// of the channelized source → extract → clean → sink pipeline across thread
// counts, live ingest-to-publish latency, backpressure behaviour under a
// deliberately slow sink, and the bit-equivalence gate against the batch
// pipeline. Writes BENCH_stream.json (parse-checked by scripts/ci.sh
// bench-smoke via bench_json_check).
//
//   bench_stream [--tiny]
//
// --tiny shrinks the world to CI-smoke scale (~1 s).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_io.hpp"
#include "stream/pipeline.hpp"
#include "synth/sessions.hpp"
#include "tero/pipeline.hpp"
#include "util/thread_pool.hpp"

using namespace tero;

namespace {

struct ThroughputRow {
  std::size_t threads = 0;
  stream::StreamResult result;
  double wall_s = 0.0;
  double events_per_s = 0.0;
  double publish_p50_ms = 0.0;
  double publish_p99_ms = 0.0;
  bool matches_batch = false;
};

/// {"to_extract": {"push": ms, "pop": ms}, ...}: how long each channel's
/// producer waited on a full queue and its consumer on an empty one.
std::string blocked_ms_json(const stream::StreamResult& result) {
  std::ostringstream out;
  const char* sep = "";
  out << "{";
  for (const auto& [name, stats] :
       {std::pair{"to_extract", &result.to_extract},
        std::pair{"to_clean", &result.to_clean},
        std::pair{"to_sink", &result.to_sink}}) {
    out << sep << "\"" << name << "\": {\"push\": "
        << static_cast<double>(stats->push_blocked_ns) / 1e6
        << ", \"pop\": " << static_cast<double>(stats->pop_blocked_ns) / 1e6
        << "}";
    sep = ", ";
  }
  out << "}";
  return out.str();
}

std::string snapshot_bytes(const std::vector<serve::SnapshotEntry>& entries) {
  std::ostringstream out;
  serve::save_snapshot(serve::Snapshot(1, entries), out);
  return out.str();
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  const std::size_t hw = util::ThreadPool::resolve(0);

  synth::WorldConfig world_config;
  world_config.seed = 11;
  world_config.num_streamers = tiny ? 60 : 240;
  world_config.p_twitter = 0.9;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = tiny ? 2 : 5;
  synth::SessionGenerator generator(world, behavior, 3);
  const auto streams = generator.generate();

  // ---- batch baseline -------------------------------------------------------
  bench::header("stream: batch baseline");
  const auto batch_start = std::chrono::steady_clock::now();
  core::Pipeline batch(bench::fast_pipeline(11));
  const core::Dataset dataset = batch.run(world, streams);
  const double batch_wall_s = seconds_since(batch_start);
  const std::string batch_bytes = snapshot_bytes(serve::entries_from(dataset));
  bench::note("streamers: " + std::to_string(world.streamers().size()) +
              ", batch wall: " + util::fmt_double(batch_wall_s * 1e3, 1) +
              " ms, funnel retained: " + std::to_string(dataset.funnel.retained));

  // ---- streaming throughput vs threads --------------------------------------
  bench::header("stream: end-to-end throughput (live epochs attached)");
  std::vector<std::size_t> thread_counts{1};
  if (hw >= 4) thread_counts.push_back(4);
  if (hw > 4) {
    thread_counts.push_back(hw);
  } else if (hw <= 2) {
    thread_counts.push_back(2);
  }
  std::vector<ThroughputRow> rows;
  util::Table table({"threads", "events", "kev/s", "windows", "epochs",
                     "pub p99 ms", "batch match"});
  for (const std::size_t threads : thread_counts) {
    obs::MetricsRegistry registry;
    serve::ServeConfig serve_config;
    serve::QueryService service(serve_config);

    stream::StreamConfig config;
    config.tero = bench::fast_pipeline(11);
    config.tero.threads = threads;
    config.tero.metrics = &registry;
    config.publish_every_windows = 2;
    config.service = &service;

    stream::StreamPipeline pipeline(config);
    const auto start = std::chrono::steady_clock::now();
    ThroughputRow row;
    row.result = pipeline.run(world, streams);
    row.wall_s = seconds_since(start);
    row.threads = threads;
    row.events_per_s =
        row.wall_s > 0 ? static_cast<double>(row.result.events) / row.wall_s
                       : 0.0;
    const auto& publish_hist =
        registry.histogram("tero.stream.ingest_to_publish_ms");
    if (publish_hist.count() > 0) {
      row.publish_p50_ms = publish_hist.quantile(0.50);
      row.publish_p99_ms = publish_hist.quantile(0.99);
    }
    row.matches_batch = snapshot_bytes(row.result.final_entries) == batch_bytes;
    table.add_row({std::to_string(threads),
                   std::to_string(row.result.events),
                   util::fmt_double(row.events_per_s / 1e3, 1),
                   std::to_string(row.result.windows_closed),
                   std::to_string(row.result.epochs_published),
                   util::fmt_double(row.publish_p99_ms, 2),
                   row.matches_batch ? "yes" : "NO"});
    rows.push_back(std::move(row));
  }
  table.print(std::cout);
  bench::note("batch match must be yes at every thread count: the schedule "
              "fixes the event order, so parallelism cannot change results");
  for (const auto& row : rows) {
    bench::note(std::to_string(row.threads) +
                " threads, channel blocked ms: " +
                blocked_ms_json(row.result));
  }

  // ---- backpressure under a slow sink ---------------------------------------
  bench::header("stream: backpressure (slow sink, capacity 8)");
  stream::StreamConfig slow_config;
  slow_config.tero = bench::fast_pipeline(11);
  slow_config.tero.threads = hw >= 4 ? 4 : hw;
  slow_config.channel_capacity = 8;
  slow_config.extract_batch = 8;
  slow_config.sink_delay_us = tiny ? 20 : 5;
  stream::StreamPipeline slow_pipeline(slow_config);
  const stream::StreamResult slow = slow_pipeline.run(world, streams);
  const std::uint64_t slow_stalls = slow.to_extract.stalls +
                                    slow.to_clean.stalls +
                                    slow.to_sink.stalls;
  const std::uint64_t slow_peak =
      std::max({slow.to_extract.max_depth, slow.to_clean.max_depth,
                slow.to_sink.max_depth});
  // Channels count batches: capacity 8 events in hand-offs of 8 is 1 batch.
  const std::size_t slow_capacity_batches = slow_config.channel_batches();
  bench::note("stalls: " + std::to_string(slow_stalls) +
              ", peak queue depth: " + std::to_string(slow_peak) + "/" +
              std::to_string(slow_capacity_batches) + " batches of " +
              std::to_string(slow_config.handoff_batch()) +
              " events (bounded memory regardless of sink speed)");

  // ---- obs: event-time timeline + SLO verdicts ------------------------------
  // The sink advances the timeline past each event's virtual arrival time
  // (DESIGN.md §13), so the scraped history covers the multi-day event-time
  // horizon — this run exercises ring downsampling (interval doubling) and
  // records the SLO verdicts the scraper produced.
  bench::header("stream: obs timeline + SLO verdicts (virtual event time)");
  obs::MetricsRegistry obs_registry;
  obs::TimelineConfig timeline_config;
  timeline_config.scrape_every_ms = 60'000;  // one virtual minute
  timeline_config.prefixes = {
      "tero.stream.events",      "tero.stream.late",
      "tero.stream.windows_closed", "tero.stream.checkpoints",
      "tero.stream.epochs",      "tero.stream.watermark",
  };
  obs::MetricsTimeline timeline(obs_registry, timeline_config);
  obs::SloTracker tracker;
  tracker.add(
      "slo late: rate(tero.stream.late) < 1 over 3600s window, budget 10%");
  tracker.add(
      "slo windows: rate(tero.stream.windows_closed) < 1 over 3600s window, "
      "budget 50%");
  tracker.attach(timeline);
  stream::StreamConfig obs_config;
  obs_config.tero = bench::fast_pipeline(11);
  obs_config.tero.threads = hw >= 4 ? 4 : hw;
  obs_config.tero.metrics = &obs_registry;
  obs_config.timeline = &timeline;
  stream::StreamPipeline obs_pipeline(obs_config);
  const stream::StreamResult obs_run = obs_pipeline.run(world, streams);
  const auto obs_slos = tracker.status();
  bench::note(std::to_string(timeline.snapshot_count()) + " snapshots @ " +
              std::to_string(timeline.scrape_interval_ms()) +
              " ms virtual interval (downsampled from 60000 ms), " +
              std::to_string(obs_run.events) + " events, " +
              std::to_string(tracker.alerts().size()) + " alert event(s)");
  for (const auto& slo : obs_slos) {
    bench::note("  slo " + slo.slo + ": measured " +
                util::fmt_double(slo.measured, 4) + ", burn slow " +
                util::fmt_double(slo.burn_slow, 2) +
                (slo.firing ? " FIRING" : " ok"));
  }

  // ---- machine-readable report ----------------------------------------------
  std::ofstream out("BENCH_stream.json");
  out << "{\n  \"batch\": {\"wall_s\": " << batch_wall_s
      << ", \"entries\": " << dataset.entries.size() << "},\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    out << "    {\"threads\": " << row.threads
        << ", \"events\": " << row.result.events
        << ", \"wall_s\": " << row.wall_s
        << ", \"events_per_s\": " << row.events_per_s
        << ", \"late_events\": " << row.result.late_events
        << ", \"windows_closed\": " << row.result.windows_closed
        << ", \"epochs\": " << row.result.epochs_published
        << ", \"publish_p50_ms\": " << row.publish_p50_ms
        << ", \"publish_p99_ms\": " << row.publish_p99_ms
        << ", \"matches_batch\": " << (row.matches_batch ? "true" : "false")
        << ", \"blocked_ms\": " << blocked_ms_json(row.result) << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ],\n";
  out << "  \"backpressure\": {\"stalls\": " << slow_stalls
      << ", \"peak_depth\": " << slow_peak
      << ", \"capacity\": " << slow_config.channel_capacity
      << ", \"capacity_batches\": " << slow_capacity_batches << "},\n";
  out << "  \"obs\": {\"snapshots\": " << timeline.snapshot_count()
      << ", \"scrape_interval_ms\": " << timeline.scrape_interval_ms()
      << ", \"alerts\": " << tracker.alerts().size() << ", \"slos\": [";
  for (std::size_t i = 0; i < obs_slos.size(); ++i) {
    const auto& slo = obs_slos[i];
    out << (i > 0 ? ", " : "") << "{\"slo\": \"" << slo.slo
        << "\", \"measured\": " << slo.measured
        << ", \"burn_fast\": " << slo.burn_fast
        << ", \"burn_slow\": " << slo.burn_slow << ", \"firing\": "
        << (slo.firing ? "true" : "false") << "}";
  }
  out << "]}\n";
  out << "}\n";
  bench::note("wrote BENCH_stream.json");

  bool all_match = true;
  for (const auto& row : rows) all_match = all_match && row.matches_batch;
  return all_match ? 0 : 1;
}
