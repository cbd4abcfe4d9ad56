#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fault/policy.hpp"
#include "serve/admission.hpp"
#include "serve/epoch.hpp"
#include "serve/lru_cache.hpp"
#include "serve/snapshot.hpp"
#include "store/consistent_hash.hpp"
#include "tsdb/store.hpp"

namespace tero::fault {
class FaultInjector;
class FaultPoint;
}  // namespace tero::fault

namespace tero::obs {
class MetricsRegistry;
class TraceRecorder;
class Counter;
class Gauge;
class Histogram;
}  // namespace tero::obs

namespace tero::serve {

/// What a consumer can ask the serving layer (DESIGN.md §9). Snapshot kinds
/// are pure functions of (query, snapshot) and range kinds of (query, store
/// version) — the determinism anchor for the load generator: the same query
/// against the same data always returns the same bits, no matter which
/// shard or thread served it or whether the range cache did.
enum class QueryKind {
  kPercentile,  ///< param = percentile in [0, 100]
  kMean,
  kCount,       ///< retained sample count
  kEcdf,        ///< param = latency_ms; value = P(latency <= param)
  kTopK,        ///< k worst locations of `game` by p95 (location ignored)
  // Historical range kinds, answered from the tiered time-series store
  // (ServeConfig::tsdb) instead of the published snapshot. The answer is
  // one RangePoint per window in [t0_ms, t1_ms); `value` echoes the last
  // window. kRangeDrift ignores the window fields: value = param-percentile
  // over [t1-7d, t1) minus the same over [t1-14d, t1-7d).
  kRangeCount,
  kRangeMean,
  kRangePercentile,  ///< param = percentile in [0, 100]
  kRangeDrift,       ///< param = percentile in [0, 100]
};

/// True for the kinds served from the time-series store.
[[nodiscard]] constexpr bool is_range_kind(QueryKind kind) noexcept {
  return kind == QueryKind::kRangeCount || kind == QueryKind::kRangeMean ||
         kind == QueryKind::kRangePercentile ||
         kind == QueryKind::kRangeDrift;
}

struct Query {
  QueryKind kind = QueryKind::kPercentile;
  geo::Location location;
  std::string game;
  double param = 50.0;
  std::size_t k = 5;
  /// Range-kind window: [t0_ms, t1_ms) split into window_ms buckets.
  std::int64_t t0_ms = 0;
  std::int64_t t1_ms = 0;
  std::int64_t window_ms = 86'400'000;
  /// Caller-assigned trace/span id (0 = none). The "serve.query" span is
  /// tagged with it and, when the latency histogram has exemplars armed,
  /// the recorded sample carries it — the link that lets `obs report`
  /// print "p99 bucket exemplar -> span 0x...". The load generator sets
  /// trace_id = query index + 1. Never part of the answer or its hash.
  std::uint64_t trace_id = 0;
};

enum class QueryStatus {
  kOk,
  kNotFound,     ///< snapshot has no such {location, game}
  kShed,         ///< rejected by admission control
  kNoSnapshot,   ///< nothing published yet
  kUnavailable,  ///< shard down and no previous epoch to degrade to
  kBrownout,     ///< refused by the brownout ladder (expensive kind disabled)
};

/// Brownout degradation ladder rung (full declaration in brownout.hpp).
enum class BrownoutLevel : std::uint8_t;

/// Unified denial accounting (DESIGN.md §16): every request the system turns
/// away increments `tero.serve.denied{reason=...}` with one of these labels,
/// so SLO specs and the overload controller read a single series family.
enum class DenyReason : std::uint8_t {
  kShed,         ///< admission control rejected (token bucket empty)
  kStale,        ///< bounded-staleness refusal (over the staleness budget)
  kUnavailable,  ///< no healthy replica/shard could answer
  kBrownout,     ///< brownout ladder disabled the query kind
};

[[nodiscard]] std::string_view to_string(DenyReason reason) noexcept;

/// Handle bundle for the denied{reason=...} family — resolved once at
/// construction (the obs::Counter idiom), null-safe when metrics are off.
/// Shared by QueryService and cluster::Cluster so both layers write the
/// same series.
class DeniedCounters {
 public:
  DeniedCounters() = default;
  explicit DeniedCounters(obs::MetricsRegistry* metrics);

  void add(DenyReason reason) const;

 private:
  obs::Counter* by_reason_[4] = {nullptr, nullptr, nullptr, nullptr};
};

struct TopEntry {
  std::string location;
  double value = 0.0;  ///< the ranking statistic (p95)
};

struct QueryResponse {
  QueryStatus status = QueryStatus::kNoSnapshot;
  double value = 0.0;
  std::uint64_t epoch = 0;
  bool cached = false;
  /// Degraded-mode marker (DESIGN.md §11): the owning shard was unavailable
  /// and this answer came from the last good snapshot instead of the
  /// current epoch — explicitly STALE{age}, never silently wrong.
  bool stale = false;
  std::uint64_t stale_age = 0;  ///< epochs behind the current one
  std::vector<TopEntry> top;    ///< kTopK only
  std::vector<tsdb::RangePoint> series;  ///< range kinds only
};

/// Order- and thread-independent fingerprint of one (query index, response)
/// pair; the load generator XOR-folds these into its result checksum. Timing
/// artifacts (`cached`) are deliberately excluded.
[[nodiscard]] std::uint64_t hash_response(std::uint64_t index,
                                          const QueryResponse& response);

/// Pure query evaluation against one immutable snapshot — the kernel behind
/// QueryService's read path, exposed so other serving layers (the cluster's
/// replicated reads) can answer from whichever epoch their routing picked.
/// No caches, no metrics, no staleness markers: status/value/epoch/top only.
[[nodiscard]] QueryResponse answer(const Query& query,
                                   const Snapshot& snapshot);

struct ServeConfig {
  /// Number of shards; each owns a range-answer LRU behind its own mutex.
  /// Keys are placed by store::ConsistentHashRing, so resizing a live fleet
  /// would only remap ~1/n of the keyspace.
  std::size_t shards = 4;
  /// Per-shard capacity of the range-answer cache (range kinds only; a range
  /// answer holds one RangePoint per window, ~1-2 KB); 0 disables it.
  std::size_t cache_capacity = 256;
  /// Admission control (token bucket over all shards); <= 0 disables it
  /// and the service never sheds.
  double admission_rate_qps = 0.0;
  double admission_burst = 0.0;
  /// Observability sinks (not owned; may be null). Observational only —
  /// query results never depend on them.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Nonzero arms exemplar capture on tero.serve.query_ms: each latency
  /// bucket keeps one (value, span id) sample chosen by deterministic
  /// min-wise reservoir (see obs::Histogram::record). Requires metrics.
  std::uint64_t exemplar_seed = 0;
  /// Historical store answering the range query kinds (not owned; may be
  /// null, in which case range queries return kUnavailable). Range answers
  /// are the only ones cached: the per-shard LRU keys them by the store's
  /// version counter, so a cached answer never outlives the data.
  tsdb::TimeSeriesStore* tsdb = nullptr;
  /// Optional fault injection (not owned; may be null). Arms one
  /// "serve.shard-<i>" point per shard: an injected error marks the shard
  /// unavailable for that query, trips its circuit breaker, and routes the
  /// answer through the degraded path (previous snapshot + STALE marker).
  fault::FaultInjector* injector = nullptr;
  /// Per-shard circuit-breaker tuning (used only when injector != null).
  fault::CircuitBreaker::Config breaker;
};

/// Sharded in-process query service over published snapshots.
///
/// Read path: admission -> snapshot acquire -> shard -> answer.
///  - Admission off (rate <= 0): one atomic flag read, no clock, no mutex.
///  - Acquire: EpochPublisher::acquire(), the calling thread's slot; one
///    acquire load per query, the publisher mutex only after an install.
///  - Shard: the consistent-hash ring flattened at construction into a
///    sorted (hash, shard index) table; the key's ring hash is folded in
///    place from its pieces, so routing builds no string.
///  - Answer: point and top-k kinds read the snapshot's pre-sorted values
///    without touching shard state; only range kinds go through the shard's
///    LRU, keyed by the tsdb version.
/// With admission and metrics off, a steady-state point query writes no
/// cache line that another reader or a publisher writes.
/// Publish path: build entries off to the side and swap them in atomically;
/// no shard state is touched. Readers never block on a publish: a query
/// that raced the swap simply finishes against the epoch it loaded.
class QueryService {
 public:
  explicit QueryService(ServeConfig config);

  /// Install a new snapshot. Returns the published epoch.
  std::uint64_t publish(std::vector<SnapshotEntry> entries);
  void publish(SnapshotPtr snapshot);

  [[nodiscard]] SnapshotPtr snapshot() const { return publisher_.current(); }
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return publisher_.epoch();
  }

  /// Answer one query. `now_s` feeds admission control: pass a virtual
  /// arrival time for deterministic replay, or leave negative to use wall
  /// time since service construction.
  [[nodiscard]] QueryResponse query(const Query& query, double now_s = -1.0);

  /// Admission-control front door, exposed so the open-loop load generator
  /// can take shed decisions serially in arrival order (the determinism
  /// requirement) before fanning admitted queries out to a pool. Counts
  /// sheds in the metrics registry.
  bool try_admit(double now_s = -1.0);

  /// Answer a query that has already passed admission (or for which
  /// admission is intentionally bypassed, e.g. closed-loop capacity
  /// measurement). `now_s` feeds the per-shard circuit breakers (virtual
  /// time for deterministic replay; negative = wall time).
  [[nodiscard]] QueryResponse query_admitted(const Query& query,
                                             double now_s = -1.0);

  /// Retune the admission token bucket mid-run (the overload controller's
  /// actuation path; see AdmissionController::set_rate for the
  /// no-minting/no-negative contract). Exports the new rate as the
  /// tero.serve.admission_rate gauge when metrics are on.
  void set_admission_rate(double now_s, double rate_qps, double burst = 0.0);

  /// Set/read the brownout ladder rung the read path honors (atomic; the
  /// controller writes, every query reads). Level semantics are the pure
  /// apply_brownout() in brownout.hpp: refused kinds answer kBrownout,
  /// coarsened percentiles snap to the coarse palette, stale-tolerant rungs
  /// prefer the previous epoch. Exported as tero.serve.brownout_level.
  void set_brownout(BrownoutLevel level);
  [[nodiscard]] BrownoutLevel brownout() const noexcept;

  /// Shard index that owns `query`'s key (stable across calls): the shard
  /// ConsistentHashRing::node_for names for "game|country|region|city"
  /// (or "topk|game") on a ring of "shard-<i>" nodes.
  [[nodiscard]] std::size_t shard_for(const Query& query) const;

  /// The shard's circuit-breaker state (kClosed when fault injection is
  /// off) — the controller's scale-out gate reads this.
  [[nodiscard]] fault::CircuitBreaker::State breaker_state(
      std::size_t shard_index) const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  // Aggregate range-cache/admission accounting across shards (tests,
  // reports).
  [[nodiscard]] std::uint64_t cache_hits() const;
  [[nodiscard]] std::uint64_t cache_misses() const;
  [[nodiscard]] std::uint64_t shed_count() const;
  [[nodiscard]] std::uint64_t publish_count() const noexcept {
    return publishes_.load(std::memory_order_relaxed);
  }

  /// Service-latency histogram (null when metrics are off) — the load
  /// generator reads p50/p95/p99 from here.
  [[nodiscard]] const obs::Histogram* latency_histogram() const noexcept {
    return query_ms_;
  }

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    LruCache<QueryResponse> cache;  ///< range answers only (guarded by mutex)
    /// Queries currently inside this shard (admitted, not yet answered).
    /// depth_gauge is its only reader, so it is counted only with metrics on.
    std::atomic<std::uint64_t> inflight{0};
    /// Per-shard labeled series (null when metrics are off):
    /// tero.serve.cache_hits{shard=shard-i}, the matching misses, and the
    /// tero.serve.shard_queue_depth{shard=shard-i} gauge.
    obs::Counter* hits_counter = nullptr;
    obs::Counter* misses_counter = nullptr;
    obs::Gauge* depth_gauge = nullptr;
    /// Fault-injection hook ("serve.shard-<i>"; null = healthy shard) and
    /// the circuit breaker guarding it (null when injection is off).
    fault::FaultPoint* fault_point = nullptr;
    std::unique_ptr<fault::CircuitBreaker> breaker;

    explicit Shard(std::size_t cache_capacity) : cache(cache_capacity) {}
  };

  /// The one publish body: retire the current epoch to previous_, run
  /// `swap` (which installs the new snapshot and returns its epoch), then
  /// export the publish metrics.
  std::uint64_t install(const std::function<std::uint64_t()>& swap);

  /// Range kinds: delegate to config_.tsdb for series `entry` (the
  /// query's entry_key; kUnavailable when absent or when the tsdb.read
  /// fault point fires).
  [[nodiscard]] QueryResponse answer_range(const Query& query,
                                           const std::string& entry) const;
  /// Range kinds through `shard`'s LRU. A hit carries the current epoch,
  /// exactly like a fresh answer.
  [[nodiscard]] QueryResponse cached_range(const Query& query,
                                           const std::string& entry,
                                           Shard& shard);
  /// Degraded path: answer from the last good snapshot with a STALE{age}
  /// marker, or kUnavailable when there is none. Never cached. Range kinds
  /// have no stale snapshot to fall back on: always kUnavailable.
  [[nodiscard]] QueryResponse degraded(const Query& query,
                                       std::uint64_t current_epoch);
  /// Range-kind LRU key; folds the tsdb version counter.
  [[nodiscard]] std::string cache_key(const Query& query,
                                      const std::string& entry) const;
  [[nodiscard]] double wall_now_s() const;

  ServeConfig config_;
  EpochPublisher publisher_;
  /// Brownout ladder rung (relaxed atomic: readers tolerate a one-query
  /// skew when the controller steps the ladder).
  std::atomic<std::uint8_t> brownout_{0};
  /// Last good snapshot (the epoch before the current one): what degraded
  /// answers are served from while a shard is down. Mutex-guarded like the
  /// publisher's current pointer (deliberate — TSan-safe; see epoch.hpp).
  mutable std::mutex previous_mutex_;
  SnapshotPtr previous_;
  AdmissionController admission_;
  /// One virtual node of the routing ring: the ring position and the index
  /// of the shard that owns it. route_ is sorted by hash.
  struct RoutePoint {
    std::uint64_t hash;
    std::size_t shard;
  };
  std::vector<RoutePoint> route_;
  std::vector<std::string> shard_names_;  ///< shard_names_[i] == "shard-i"
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> publishes_{0};
  std::chrono::steady_clock::time_point start_;

  // Hot-path metric handles, resolved once (null when metrics are off).
  obs::Counter* queries_total_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* not_found_counter_ = nullptr;
  obs::Counter* degraded_counter_ = nullptr;
  DeniedCounters denied_;
  obs::Histogram* query_ms_ = nullptr;
  // Publish- and control-path handles, resolved once like the above.
  obs::Counter* publishes_counter_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
  obs::Gauge* admission_rate_gauge_ = nullptr;
  obs::Gauge* brownout_gauge_ = nullptr;
};

/// The pipeline -> serving bridge: a callback suitable for
/// core::TeroConfig::on_dataset that builds serving entries from the
/// finished dataset and publishes them as the next epoch.
[[nodiscard]] std::function<void(const core::Dataset&)> publish_hook(
    QueryService& service);

}  // namespace tero::serve
