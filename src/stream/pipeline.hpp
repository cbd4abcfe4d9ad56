#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/snapshot.hpp"
#include "stream/channel.hpp"
#include "stream/config.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/pipeline.hpp"

namespace tero::stream {

/// Everything one streaming run produced (DESIGN.md §10).
struct StreamResult {
  /// The final exact dataset — bit-identical to core::Pipeline::run over
  /// the same scenario (entries in batch group order, same funnel). Empty
  /// when the run crashed.
  core::Dataset dataset;
  /// serve::entries_from(dataset): the final snapshot content.
  std::vector<serve::SnapshotEntry> final_entries;
  /// Sink epoch counter after the final publish (live epochs + 1).
  std::uint64_t final_epoch = 0;

  std::uint64_t events = 0;       ///< measurements ingested by the sink
  std::uint64_t thumbnails = 0;   ///< thumbnail events extracted
  std::uint64_t late_events = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t epochs_published = 0;  ///< live epochs only
  std::uint64_t checkpoints_written = 0;
  std::uint64_t download_throttled = 0;

  bool crashed = false;           ///< --crash-after fired
  std::uint64_t resumed_from = 0; ///< checkpoint id restored; 0 = fresh run

  /// Per-channel accounting. Events cross in batches, so pushed, popped,
  /// stalls and max_depth count batches (DESIGN.md §10).
  ChannelStats to_extract;
  ChannelStats to_clean;
  ChannelStats to_sink;
};

/// The streaming ingestion pipeline: download-schedule source → parallel
/// OCR extraction → per-streamer cleaning → windowed aggregation sink,
/// chained by bounded channels that carry batches of events, each stage on
/// its own thread (the sink runs on the caller). Event-time tumbling
/// windows close under a low watermark and fold into live serve epochs;
/// barrier-carried checkpoints make a killed run resume with bit-identical
/// final output (see DESIGN.md §10 for the full protocol).
///
/// Determinism: the schedule fixes the event order, every channel has one
/// producer, extraction randomness is per-point (Rng::indexed), and the
/// thread pool only parallelizes order-preserving batch maps — so the
/// result is bit-identical at 1 and 8 worker threads, and the final
/// dataset/snapshot equals the batch pipeline's.
class StreamPipeline {
 public:
  explicit StreamPipeline(StreamConfig config);

  /// Run the scenario. If config.checkpoint_dir holds a checkpoint, the run
  /// resumes from the latest one instead of starting fresh.
  [[nodiscard]] StreamResult run(const synth::World& world,
                                 std::span<const synth::TrueStream> streams);

  [[nodiscard]] const StreamConfig& config() const noexcept {
    return config_;
  }

 private:
  StreamConfig config_;
};

}  // namespace tero::stream
