#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "tero/pipeline.hpp"

namespace tero::obs {
class MetricsTimeline;
}  // namespace tero::obs

namespace tero::serve {
class QueryService;
}  // namespace tero::serve

namespace tero::tsdb {
class TimeSeriesStore;
}  // namespace tero::tsdb

namespace tero::stream {

/// Configuration of the streaming ingestion pipeline (DESIGN.md §10). The
/// embedded TeroConfig supplies the shared knobs — analysis parameters,
/// extraction channel, seed, thread count, granularity, obs sinks — so a
/// streaming run and a batch run of the same scenario are configured from
/// the same values (the bit-equivalence contract).
struct StreamConfig {
  core::TeroConfig tero;

  /// Event-time tumbling window size, seconds.
  double window_size_s = 21600.0;  // 6 hours
  /// Windows stay open this long past their end (watermark time) before
  /// closing; events older than a closed window are late.
  double allowed_lateness_s = 0.0;
  /// Publish a live snapshot epoch every this many closed windows
  /// (0 = only the final exact snapshot).
  std::size_t publish_every_windows = 4;

  /// Write a checkpoint every this many windows' worth of arrival time
  /// (0 = checkpointing off). Requires checkpoint_dir.
  std::size_t checkpoint_every_windows = 0;
  std::string checkpoint_dir;
  /// Fault injection: simulate a crash immediately after checkpoint N is
  /// written (0 = off). The run stops with StreamResult::crashed == true.
  std::uint64_t crash_after = 0;

  /// Per-stream delivery delay is uniform in [0, max_delivery_delay_s];
  /// 0 means arrivals equal event times (no late events possible).
  double max_delivery_delay_s = 0.0;
  /// Virtual-time token bucket over thumbnail arrivals (Twitch API quota);
  /// rate <= 0 disables throttling.
  double download_rate = 0.0;
  double download_burst = 0.0;

  /// Bound on each inter-stage channel, in events. Events cross a channel
  /// in batches of extract_batch, so a channel holds channel_batches()
  /// batches, and its ChannelStats and tero.stream.queue_depth gauge count
  /// batches, not events.
  std::size_t channel_capacity = 1024;
  /// The hand-off batch size (0 acts as 1): the source cuts a batch every
  /// this many events, and the extraction stage runs one parallel map per
  /// batch. It sets how often stages lock and wake each other, never what
  /// they compute: output is identical for any value.
  std::size_t extract_batch = 64;
  /// Test/bench knob: microseconds the sink sleeps per event, to make the
  /// consumer slow and force backpressure. Wall-clock pacing only — never
  /// read by the data path.
  std::uint64_t sink_delay_us = 0;

  /// Live epoch target (not owned; may be null). Closed windows fold into
  /// snapshots published here; the final exact snapshot is published last.
  serve::QueryService* service = nullptr;

  /// Historical sink (not owned; may be null). Each closed window appends
  /// one sample — (entry key, window end, window mean) — to the head block
  /// and advances the store's virtual clock to the window end, so sealing
  /// and compaction march with the watermark. Windows close serially in the
  /// sink in deterministic order, preserving the tsdb's determinism.
  tsdb::TimeSeriesStore* tsdb = nullptr;

  /// Virtual-time telemetry scraper (not owned; may be null). The sink —
  /// which already processes events serially in deterministic arrival
  /// order — advances it past each event's virtual arrival time, so
  /// timeline snapshots of the sink-owned tero.stream.* series are
  /// bit-identical for any thread count (DESIGN.md §13).
  obs::MetricsTimeline* timeline = nullptr;

  /// Events per hand-off: extract_batch, at least 1.
  [[nodiscard]] std::size_t handoff_batch() const noexcept {
    return std::max<std::size_t>(1, extract_batch);
  }
  /// Batches each channel holds: channel_capacity / handoff_batch(), at
  /// least 1.
  [[nodiscard]] std::size_t channel_batches() const noexcept {
    return std::max<std::size_t>(1, channel_capacity / handoff_batch());
  }
};

}  // namespace tero::stream
