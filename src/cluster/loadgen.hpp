#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "serve/replay.hpp"
#include "util/thread_pool.hpp"

namespace tero::obs {
class MetricsRegistry;
class MetricsTimeline;
}  // namespace tero::obs

namespace tero::cluster {

/// Deterministic cluster load generation (DESIGN.md §14): the serve replay
/// driver (serve/replay.hpp) swept against the fleet with a scripted
/// membership/fault timeline riding the virtual clock. The cluster's
/// routing step is Cluster::route plus the due membership events; its
/// execute step is serve::answer against the decision's immutable snapshot.
/// Route-level counters and the modeled latency histogram (a pure function
/// of (seed, i, route outcome)) are written while routing.

struct ClusterLoadConfig {
  std::size_t queries = 10000;
  std::uint64_t seed = 1;
  double zipf_s = 1.1;
  double p_topk = 0.02;
  /// Open-loop arrival rate: query i arrives at i / offered_qps. Must be
  /// > 0 — the cluster is driven entirely by virtual time.
  double offered_qps = 5000.0;
  ReadPolicy policy = ReadPolicy::kLeaderOnly;
  /// Scripted membership/fault timeline: kKill, kRestart, kJoin, kLeave,
  /// kPartition, kHeal and kRepublish apply; other actions are ignored.
  std::vector<serve::Event> events;
  /// Optional virtual-time telemetry (both may be null). Deterministic
  /// prefixes: "tero.cluster." and "tero.fault.breaker" — every series
  /// under them is written from the serial phases only.
  obs::MetricsRegistry* metrics = nullptr;
  obs::MetricsTimeline* timeline = nullptr;
};

struct ClusterLoadReport : serve::Tally {
  std::size_t failover_attempts = 0;  ///< extra owners tried beyond the first
  std::size_t events_applied = 0;
  /// Served-staleness distribution: stale_age_hist[age] = answers served
  /// `age` epochs behind. Never longer than budget + 1 (the bounded-
  /// staleness property the tests pin).
  std::vector<std::size_t> stale_age_hist;
  std::uint64_t stale_age_max = 0;
  // Modeled latency quantiles (ms) from tero.cluster.loadgen.latency_ms
  // when metrics are attached; 0 otherwise. Virtual time, not wall time.
  double modeled_p50_ms = 0.0;
  double modeled_p95_ms = 0.0;
  double modeled_p99_ms = 0.0;
};

/// Sweep `config.queries` deterministic queries against `cluster` on
/// `pool` (nullptr or size 1 = serial execution phase). The cluster must
/// have a published snapshot (queries are generated from it).
[[nodiscard]] ClusterLoadReport run_cluster_loadtest(
    Cluster& cluster, const ClusterLoadConfig& config,
    util::ThreadPool* pool);

}  // namespace tero::cluster
