#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "fault/policy.hpp"
#include "serve/replay.hpp"
#include "serve/snapshot.hpp"

namespace tero::util {
class ThreadPool;
}  // namespace tero::util

namespace tero::control {

/// Deterministic closed-loop overload sweep (DESIGN.md §16): an open-loop
/// Zipf query stream at a fixed offered rate drives a QueryService whose
/// knobs — admission token rate, brownout rung, provisioned shard count,
/// queue bound — are actuated live by a Controller reading virtual-time
/// telemetry, while a scripted chaos schedule (shard kill, replication
/// delay, tsdb read errors) churns underneath.
///
/// The control driver is the serve replay driver (serve/replay.hpp) with
/// controller ticks, the queue model, breakers, fault draws and the chaos
/// timeline in its serial routing step; its execute step answers each fixed
/// route from the epoch routing picked. The decision log and checksum are
/// therefore bit-identical for any thread count.

/// The standard chaos plan the acceptance gates run under, for a run of
/// `duration_s` virtual seconds: shard 1 killed over 30-45% of the run, a
/// replication delay (publishes pause, reads go stale) over 55-65%, and
/// tsdb read errors over 70-80%. Each window is a begin and an end event at
/// the nearest virtual millisecond.
[[nodiscard]] std::vector<serve::Event> standard_chaos_events(
    double duration_s);

struct SweepConfig {
  std::uint64_t seed = 1;
  /// Virtual run length; the query count is duration_s * offered rate.
  double duration_s = 12.0;
  /// Offered load: explicit qps, or (when <= 0) load_multiplier times the
  /// nominal capacity initial_shards * shard_unit_qps.
  double offered_qps = 0.0;
  double load_multiplier = 1.0;
  double zipf_s = 1.1;
  /// Fraction of queries tagged as historical (tsdb-backed): they cost the
  /// range-kind price, fail during tsdb windows, and the ladder disables
  /// them from kCachedOnly up.
  double p_history = 0.05;

  ControllerConfig controller;

  /// Background fault noise, always on (the windows ride on top).
  std::string fault_plan = "serve.shard*=error@0.02;tsdb.read=error@0.1";
  /// Scripted chaos timeline: kKill/kRestart take shard `target` down and
  /// back, kPartition/kHeal delay replication, kStoreDown/kStoreUp fail
  /// tsdb reads; other actions are ignored. Each action's state is the
  /// last event that set it, so windows of one kind must not overlap. The
  /// default is the standard plan for the default duration: rebuild it
  /// when changing duration_s.
  std::vector<serve::Event> events = standard_chaos_events(12.0);
  /// While replication is delayed the per-query draw under this probability
  /// forces a stale (previous-epoch) read — the replica hasn't applied.
  double repl_stale_prob = 0.6;
  fault::CircuitBreaker::Config breaker{5, 2.0, 2};

  /// Republish cadence (epoch advance) on the virtual clock.
  double publish_every_s = 2.0;
  std::uint64_t scrape_every_ms = 100;
  std::string slo_spec =
      "slo latency: p99(tero.control.latency_ms) < 25ms over 10s window, "
      "budget 5%";
  std::uint64_t slo_fast_window_ms = 2000;
};

struct SweepReport : serve::Tally {
  // The tally's shed counts token and overflow sheds alike.
  std::size_t overflow = 0;  ///< queue-bound overflow subset of shed
  // Modeled service-latency quantiles: the queue model's virtual time.
  double modeled_p50_ms = 0.0;
  double modeled_p99_ms = 0.0;
  double slo_good_fraction = 1.0;
  bool slo_fired = false;
  /// Virtual time of the first shed and the first ladder-up decision
  /// (0 = never); the acceptance gate "brownout engages before shedding".
  std::uint64_t first_shed_ms = 0;
  std::uint64_t first_ladder_ms = 0;
  bool ladder_engaged_before_shed = false;
  int max_level = 0;
  std::size_t peak_shards = 0;
  std::size_t min_channel_capacity = 0;
  std::size_t ticks = 0;
  std::uint64_t decision_digest = 0;  ///< fnv1a64 of decision_log
  std::string decision_log;           ///< byte-stable, one line per tick
  double offered_qps = 0.0;
  double wall_ms = 0.0;  ///< timing only; never part of the checksum
};

/// Run one sweep cell. `entries` is the serving dataset (published twice up
/// front so a previous epoch exists for stale reads); `pool` parallelizes
/// the execute step only (nullptr = serial).
[[nodiscard]] SweepReport run_control_sweep(
    std::vector<serve::SnapshotEntry> entries, const SweepConfig& config,
    util::ThreadPool* pool);

}  // namespace tero::control
