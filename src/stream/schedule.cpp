#include "stream/schedule.hpp"

#include <algorithm>
#include <limits>
#include <tuple>

#include "download/rate_limiter.hpp"
#include "util/rng.hpp"

namespace tero::stream {
namespace {

/// Salt for the per-stream delivery-delay draw; independent of the
/// extraction salt so delays never perturb extraction randomness.
constexpr std::uint64_t kDelaySalt = 0x7e21beef0002ULL;

/// Orders events with equal arrival time: a stream's start precedes its
/// thumbnails, which precede its end.
int marker_rank(EventKind kind) {
  switch (kind) {
    case EventKind::kStreamStart: return 0;
    case EventKind::kThumbnail: return 1;
    case EventKind::kStreamEnd: return 2;
    default: return 3;
  }
}

}  // namespace

StreamSchedule build_schedule(const synth::World& world,
                              std::span<const synth::TrueStream> streams,
                              const StreamConfig& config,
                              util::ThreadPool* pool) {
  StreamSchedule schedule;
  schedule.located = core::locate_streamers(world, pool);

  const store::Pseudonymizer pseudonymizer =
      core::make_pseudonymizer(config.tero.seed);
  schedule.pseudonyms.reserve(world.streamers().size());
  for (const auto& streamer : world.streamers()) {
    schedule.pseudonyms.push_back(pseudonymizer.pseudonym(streamer.id));
  }

  schedule.stream_group.resize(streams.size());
  schedule.stream_window_location.resize(streams.size());

  const std::uint64_t delay_seed =
      util::mix_seed(config.tero.seed, kDelaySalt);
  std::vector<StreamEvent> events;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& true_stream = streams[i];
    if (!schedule.located.located[true_stream.streamer_index].has_value()) {
      continue;  // unlocated streamers never enter the pipeline (§3.1)
    }
    if (true_stream.points.empty()) continue;

    const int epoch = core::stream_epoch(world, schedule.located, true_stream);
    GroupKey key{true_stream.streamer_index, true_stream.game, epoch};
    schedule.stream_group[i] = key;
    const geo::Location& believed =
        epoch == 1
            ? *schedule.located.located_after[true_stream.streamer_index]
            : *schedule.located.located[true_stream.streamer_index];
    schedule.stream_window_location[i] =
        core::truncate_location(believed, config.tero.aggregate_granularity);
    ++schedule.group_sizes[key];

    double delay = 0.0;
    if (config.max_delivery_delay_s > 0.0) {
      util::Rng delay_rng = util::Rng::indexed(delay_seed, i);
      delay = delay_rng.uniform(0.0, config.max_delivery_delay_s);
    }

    StreamEvent start;
    start.kind = EventKind::kStreamStart;
    start.stream_index = static_cast<std::uint32_t>(i);
    start.event_time = true_stream.points.front().t;
    start.arrival_time = true_stream.points.front().t + delay;
    events.push_back(start);
    for (std::size_t p = 0; p < true_stream.points.size(); ++p) {
      StreamEvent ev;
      ev.kind = EventKind::kThumbnail;
      ev.stream_index = static_cast<std::uint32_t>(i);
      ev.point_index = static_cast<std::uint32_t>(p);
      ev.event_time = true_stream.points[p].t;
      ev.arrival_time = true_stream.points[p].t + delay;
      events.push_back(ev);
      ++schedule.thumbnails;
    }
    StreamEvent end;
    end.kind = EventKind::kStreamEnd;
    end.stream_index = static_cast<std::uint32_t>(i);
    end.event_time = true_stream.points.back().t;
    end.arrival_time = true_stream.points.back().t + delay;
    events.push_back(end);
  }

  std::sort(events.begin(), events.end(),
            [](const StreamEvent& a, const StreamEvent& b) {
              return std::make_tuple(a.arrival_time, a.stream_index,
                                     marker_rank(a.kind), a.point_index) <
                     std::make_tuple(b.arrival_time, b.stream_index,
                                     marker_rank(b.kind), b.point_index);
            });

  // Download quota: each thumbnail arrival spends one token; throttled
  // arrivals slip to when their token refills. Delivery is FIFO, so arrival
  // times are monotonized — a throttled thumbnail delays everything behind
  // it, exactly like a rate-limited download queue.
  if (config.download_rate > 0.0) {
    download::TokenBucket bucket(config.download_rate,
                                 config.download_burst > 0.0
                                     ? config.download_burst
                                     : config.download_rate);
    double clock = -std::numeric_limits<double>::infinity();
    for (auto& ev : events) {
      double now = std::max(ev.arrival_time, clock);
      if (ev.kind == EventKind::kThumbnail) {
        if (!bucket.try_acquire(now)) {
          ++schedule.download_throttled;
          now = bucket.next_available(now);
          bucket.try_acquire(now);
        }
        ++schedule.download_acquired;
      }
      ev.arrival_time = now;
      clock = now;
    }
  }

  // Checkpoint barriers at fixed arrival-time boundaries. The boundary
  // spacing is in arrival time, which equals event time when delivery is
  // undelayed and unthrottled — "every N windows" of the undisturbed clock.
  if (config.checkpoint_every_windows > 0) {
    const double interval =
        static_cast<double>(config.checkpoint_every_windows) *
        config.window_size_s;
    std::vector<StreamEvent> with_barriers;
    with_barriers.reserve(events.size() + 16);
    double origin = events.empty() ? 0.0 : events.front().arrival_time;
    double next_boundary = origin + interval;
    std::uint64_t id = 1;
    for (auto& ev : events) {
      while (ev.arrival_time >= next_boundary) {
        StreamEvent barrier;
        barrier.kind = EventKind::kCheckpoint;
        barrier.checkpoint_id = id++;
        barrier.arrival_time = next_boundary;
        with_barriers.push_back(barrier);
        next_boundary += interval;
        ++schedule.checkpoints;
      }
      with_barriers.push_back(std::move(ev));
    }
    events = std::move(with_barriers);
  }

  schedule.events = std::move(events);
  return schedule;
}

}  // namespace tero::stream
