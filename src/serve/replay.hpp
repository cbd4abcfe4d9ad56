#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tero::obs {
class MetricsRegistry;
class MetricsTimeline;
}  // namespace tero::obs

namespace tero::serve {

/// Deterministic replay of a query stream against a serving target
/// (DESIGN.md §9). One mechanism drives all three load drivers — the serve
/// loadtest below, cluster::run_cluster_loadtest and
/// control::run_control_sweep:
///
///   1. a virtual ArrivalClock places arrival i at i / qps seconds, and an
///      EventCursor fires the scripted Events due by each arrival;
///   2. each driver routes arrivals serially, in arrival order — every
///      stateful decision (admission, breakers, membership, controller
///      ticks) happens here, on the virtual clock;
///   3. execute_all() runs each arrival's execute step on the pool
///      and hashes the answer with hash_response;
///   4. a serial Tally folds the outcomes in arrival order.
///
/// Query i is derived entirely from Rng::indexed(seed, i), steps 2 and 4
/// never touch the pool, and step 3 writes only its own slot, so every
/// checksum, count and modeled number is bit-identical for any thread
/// count. Only wall-clock timings vary.

/// Zipf(s) popularity over ranks [0, n): P(rank = r) proportional to
/// 1 / (r + 1)^s, sampled by inverting a precomputed CDF. s = 0 is uniform;
/// s around 1 matches the heavy skew real query traffic shows toward a few
/// hot {location, game} keys.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t sample(util::Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

struct LoadGenConfig {
  std::size_t queries = 10000;
  std::uint64_t seed = 1;
  double zipf_s = 1.1;
  /// Fraction of point queries that are percentile lookups; the remainder
  /// splits evenly between mean, count and ECDF. Drawn per query from its
  /// indexed generator.
  double p_percentile = 0.55;
  /// Probability a query is a top-k-worst scan instead of a point lookup.
  double p_topk = 0.02;
  std::size_t topk = 5;
  /// Open loop: query i arrives at virtual time i / offered_qps and the
  /// service's admission controller may shed it. offered_qps <= 0 selects
  /// closed loop (no admission; telemetry rides a 1000 qps nominal clock).
  double offered_qps = 0.0;

  /// Optional virtual-time telemetry (DESIGN.md §13; both may be null).
  /// After execution, outcomes are replayed serially in arrival order on
  /// the virtual clock: per-outcome counters
  /// (tero.loadgen.{queries,ok,not_found,shed,stale,unavailable,brownout})
  /// and a modeled latency histogram (tero.loadgen.latency_ms, a pure
  /// function of (seed, i, outcome), never wall time) are written into
  /// `metrics`, and `timeline` is advanced past each arrival.
  obs::MetricsRegistry* metrics = nullptr;
  obs::MetricsTimeline* timeline = nullptr;
  /// Nonzero arms deterministic exemplars on tero.loadgen.latency_ms
  /// (span id = query index + 1, matching Query::trace_id).
  std::uint64_t exemplar_seed = 0;
};

/// Build the deterministic query stream: queries[i] depends only on
/// (seed, i) and the snapshot's key order.
[[nodiscard]] std::vector<Query> generate_queries(const Snapshot& snapshot,
                                                  const LoadGenConfig& config);

/// The virtual arrival clock: arrival i lands at i / qps seconds.
struct ArrivalClock {
  double qps = 1000.0;

  [[nodiscard]] double at_s(std::size_t i) const noexcept {
    return static_cast<double>(i) / qps;
  }
  [[nodiscard]] std::uint64_t at_ms(std::size_t i) const noexcept {
    return static_cast<std::uint64_t>(static_cast<double>(i) * 1000.0 / qps);
  }
};

/// What a scripted event does to its target. Each driver applies the
/// actions its target understands and ignores the rest.
enum class EventAction : std::uint8_t {
  kKill,       ///< node/shard loss (stays in the ring; replicas take over)
  kRestart,    ///< revive a killed node/shard
  kJoin,       ///< add a node, live key remapping
  kLeave,      ///< remove node `target` from the ring
  kPartition,  ///< sever replication to `target` (reads keep going)
  kHeal,       ///< re-link a partitioned target
  kRepublish,  ///< advance the epoch (same entries)
  kStoreDown,  ///< the historical store refuses reads
  kStoreUp,    ///< the historical store answers again
};

[[nodiscard]] std::string_view to_string(EventAction action) noexcept;

/// One scripted action on the virtual clock. A window (a kill that later
/// restarts, a partition that later heals) is a begin event and an end
/// event. `target` is the node or shard index at the moment the event fires
/// (earlier events may have changed the roster); ignored by kJoin,
/// kRepublish and the store actions.
struct Event {
  std::uint64_t at_ms = 0;
  EventAction action = EventAction::kKill;
  std::size_t target = 0;
};

/// Cursor over a timeline, stable-sorted by at_ms on construction.
class EventCursor {
 public:
  explicit EventCursor(std::vector<Event> events);

  /// The next event due at `now_ms` (at_ms <= now_ms), or null when none
  /// is; each event is returned once. `now_ms` must not decrease.
  [[nodiscard]] const Event* next_due(std::uint64_t now_ms);
  [[nodiscard]] std::size_t fired() const noexcept { return next_; }

 private:
  std::vector<Event> events_;
  std::size_t next_ = 0;
};

/// What the parallel phase keeps of one arrival's answer.
struct Outcome {
  QueryStatus status = QueryStatus::kNoSnapshot;
  bool stale = false;
  std::uint64_t hash = 0;
};

/// The parallel phase: execute(i) for every arrival i in [0, arrivals) on
/// `pool` (nullptr = serial), each answer hashed with hash_response(i, ·).
/// `execute` runs concurrently: its answer for arrival i may depend only on
/// i and on state the serial routing phase fixed.
template <class Execute>
[[nodiscard]] std::vector<Outcome> execute_all(util::ThreadPool* pool,
                                               std::size_t arrivals,
                                               const Execute& execute) {
  return util::parallel_map(pool, arrivals, 64, [&](std::size_t i) {
    const QueryResponse response = execute(i);
    return Outcome{response.status, response.stale,
                   hash_response(i, response)};
  });
}

/// Serial outcome tally, folded in arrival order. Every driver's report
/// embeds one.
struct Tally {
  std::size_t issued = 0;
  std::size_t ok = 0;
  std::size_t not_found = 0;
  std::size_t shed = 0;
  std::size_t stale = 0;  ///< answered from an older epoch (any status)
  std::size_t unavailable = 0;
  std::size_t brownout = 0;
  std::size_t no_snapshot = 0;
  /// XOR-fold of hash_response(i, response_i): bit-identical across runs
  /// with the same inputs, independent of thread count.
  std::uint64_t checksum = 0;

  void add(const Outcome& outcome) noexcept;
  void add_all(std::span<const Outcome> outcomes) noexcept;
  /// count / issued (0 when nothing was issued).
  [[nodiscard]] double share(std::size_t count) const noexcept;
  /// Share of issued arrivals that got an answer: 1 - share(unavailable +
  /// no_snapshot), and 1 when nothing was issued.
  [[nodiscard]] double availability() const noexcept;
};

/// Zero-padded 16-digit hex: how the CLI and benches print checksums and
/// digests.
[[nodiscard]] std::string hex64(std::uint64_t value);

/// The one way drivers print a tally: a counts line and a
/// "result checksum" line, both indented two spaces.
void print_tally(std::ostream& os, const Tally& tally);

struct LoadTestReport : Tally {
  // Wall-clock measurements of the parallel phase; never part of the
  // checksum.
  double wall_ms = 0.0;
  double achieved_qps = 0.0;
  // Measured service-latency quantiles (ms), read from the service's
  // latency histogram when metrics are attached; 0 otherwise.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

/// Drive `service` with config.queries generated queries on `pool`
/// (nullptr or size 1 = serial). The service must have a published
/// snapshot. Routing is admission (open loop only); the execute step is
/// QueryService::query_admitted.
[[nodiscard]] LoadTestReport run_loadtest(QueryService& service,
                                          const LoadGenConfig& config,
                                          util::ThreadPool* pool);

}  // namespace tero::serve
