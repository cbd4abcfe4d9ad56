#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "geo/geo.hpp"
#include "stream/config.hpp"
#include "stream/event.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/pipeline.hpp"

namespace tero::stream {

/// The deterministic arrival plan for one scenario: every event the source
/// stage will emit, in delivery order, with all per-stream derived facts the
/// stages need (location module output, pseudonyms, group membership).
///
/// Built once, up front, as a pure function of (world, streams, config) —
/// the virtual-time analogue of "the CDN decides when thumbnails arrive".
/// Because the schedule is a pure function, the source stage's entire state
/// is a single cursor into `events`, which is all a checkpoint needs to
/// record to resume it, and the token-bucket throttle costs nothing to
/// restore (its effect is already baked into the arrival times).
struct StreamSchedule {
  /// All events in arrival order: per stream a kStreamStart, its
  /// kThumbnail events, then a kStreamEnd; kCheckpoint barriers
  /// interleaved at fixed arrival-time boundaries. Only streams of located
  /// streamers appear (exactly the streams the batch pipeline extracts).
  std::vector<StreamEvent> events;

  core::LocatedWorld located;
  /// Pseudonym per streamer index (make_pseudonymizer(config seed)).
  std::vector<std::string> pseudonyms;
  /// Per ground-truth stream: its analysis group, and its believed
  /// location truncated to the aggregate granularity (the live window key).
  std::vector<GroupKey> stream_group;
  std::vector<geo::Location> stream_window_location;
  /// Streams per group — the cleaning stage counts kStreamEnd markers down
  /// from this to know when a group is complete.
  std::map<GroupKey, std::size_t> group_sizes;

  std::uint64_t thumbnails = 0;   ///< kThumbnail events in `events`
  std::uint64_t checkpoints = 0;  ///< kCheckpoint barriers in `events`
  /// Token-bucket accounting from the build (deterministic).
  std::uint64_t download_acquired = 0;
  std::uint64_t download_throttled = 0;
};

/// Build the schedule. Delivery delay of stream i is uniform in
/// [0, max_delivery_delay_s] drawn from Rng::indexed(mix_seed(seed,
/// kDelaySalt), i); the download token bucket then pushes throttled
/// arrivals forward (arrival times stay monotone — delivery is FIFO).
/// Checkpoint barriers land every checkpoint_every_windows * window_size_s
/// of arrival time. The location module geoparses on `pool` (null runs
/// inline); the schedule is the same for any pool.
[[nodiscard]] StreamSchedule build_schedule(
    const synth::World& world, std::span<const synth::TrueStream> streams,
    const StreamConfig& config, util::ThreadPool* pool);

}  // namespace tero::stream
