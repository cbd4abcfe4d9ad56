#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <string_view>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/brownout.hpp"
#include "obs/trace.hpp"
#include "store/persistence.hpp"
#include "tero/pipeline.hpp"
#include "util/rng.hpp"

namespace tero::serve {

namespace {

/// Virtual nodes per shard on the routing ring.
constexpr int kRingVirtualNodes = 64;

std::uint64_t fold(std::uint64_t hash, std::string_view piece) {
  return util::fnv1a64({piece.data(), piece.size()}, hash);
}

/// ConsistentHashRing::key_hash of the query's shard key, hashed in place
/// from its pieces: "game|country|region|city" (entry_key) for entry kinds,
/// "topk|game" for top-k, so all queries about one entry share a shard.
std::uint64_t route_hash(const Query& query) {
  // The hash of the empty key: the ring's salt, already folded in.
  static const std::uint64_t basis = store::ConsistentHashRing::key_hash({});
  if (query.kind == QueryKind::kTopK) {
    return fold(fold(basis, "topk|"), query.game);
  }
  std::uint64_t hash = fold(basis, query.game);
  for (const std::string_view piece :
       {query.location.country, query.location.region, query.location.city}) {
    hash = fold(fold(hash, "|"), piece);
  }
  return hash;
}

std::uint64_t hash_double(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

/// ScopedTimer variant that routes through Histogram::record so an
/// exemplar-armed latency histogram attaches the query's span id to the
/// sample (record == observe when exemplars are off).
class RecordTimer {
 public:
  RecordTimer(obs::Histogram* histogram, std::uint64_t span_id) noexcept
      : histogram_(histogram), span_id_(span_id) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~RecordTimer() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(
        std::chrono::duration<double, std::milli>(elapsed).count(), span_id_);
  }
  RecordTimer(const RecordTimer&) = delete;
  RecordTimer& operator=(const RecordTimer&) = delete;

 private:
  obs::Histogram* histogram_;
  std::uint64_t span_id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::string_view to_string(DenyReason reason) noexcept {
  switch (reason) {
    case DenyReason::kShed: return "shed";
    case DenyReason::kStale: return "stale";
    case DenyReason::kUnavailable: return "unavailable";
    case DenyReason::kBrownout: return "brownout";
  }
  return "shed";
}

DeniedCounters::DeniedCounters(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (const DenyReason reason :
       {DenyReason::kShed, DenyReason::kStale, DenyReason::kUnavailable,
        DenyReason::kBrownout}) {
    by_reason_[static_cast<std::size_t>(reason)] =
        &metrics->counter(obs::MetricsRegistry::labeled(
            "tero.serve.denied", {{"reason", to_string(reason)}}));
  }
}

void DeniedCounters::add(DenyReason reason) const {
  obs::Counter* counter = by_reason_[static_cast<std::size_t>(reason)];
  if (counter != nullptr) counter->add();
}

std::uint64_t hash_response(std::uint64_t index,
                            const QueryResponse& response) {
  std::uint64_t h = util::mix_seed(index, static_cast<std::uint64_t>(
                                              response.status));
  h = util::mix_seed(h, hash_double(response.value));
  // Staleness is part of the answer's meaning (a degraded STALE{age} reply
  // is not the same result as a fresh one), unlike the `cached` timing bit.
  h = util::mix_seed(h, (response.stale ? 1ULL : 0ULL) +
                            (response.stale_age << 1));
  for (const auto& top : response.top) {
    h = util::mix_seed(h, util::fnv1a64({top.location.data(),
                                         top.location.size()}));
    h = util::mix_seed(h, hash_double(top.value));
  }
  for (const auto& point : response.series) {
    h = util::mix_seed(h, static_cast<std::uint64_t>(point.t_ms));
    h = util::mix_seed(h, point.count);
    h = util::mix_seed(h, hash_double(point.value));
  }
  return h;
}

QueryService::QueryService(ServeConfig config)
    : config_(config),
      admission_(config.admission_rate_qps, config.admission_burst),
      start_(std::chrono::steady_clock::now()) {
  const std::size_t shard_count = std::max<std::size_t>(1, config_.shards);
  store::ConsistentHashRing ring(kRingVirtualNodes);
  shard_names_.reserve(shard_count);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shard_names_.push_back("shard-" + std::to_string(i));
    ring.add_node(shard_names_.back());
    shards_.push_back(std::make_unique<Shard>(config_.cache_capacity));
  }
  route_.reserve(ring.points().size());
  for (const auto& [hash, node] : ring.points()) {
    const auto owner =
        std::find(shard_names_.begin(), shard_names_.end(), node);
    route_.push_back(
        {hash, static_cast<std::size_t>(owner - shard_names_.begin())});
  }
  if (config_.injector != nullptr) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->fault_point =
          &config_.injector->point("serve." + shard_names_[i]);
      shards_[i]->breaker = std::make_unique<fault::CircuitBreaker>(
          config_.breaker, fault::CircuitBreaker::state_gauge(
                               config_.metrics, shard_names_[i]));
    }
  }
  if (config_.metrics != nullptr) {
    auto& registry = *config_.metrics;
    queries_total_ = &registry.counter("tero.serve.queries");
    hits_counter_ = &registry.counter("tero.serve.cache_hits");
    misses_counter_ = &registry.counter("tero.serve.cache_misses");
    not_found_counter_ = &registry.counter("tero.serve.not_found");
    degraded_counter_ = &registry.counter("tero.serve.degraded");
    denied_ = DeniedCounters(&registry);
    publishes_counter_ = &registry.counter("tero.serve.publishes");
    epoch_gauge_ = &registry.gauge("tero.serve.epoch");
    admission_rate_gauge_ = &registry.gauge("tero.serve.admission_rate");
    admission_rate_gauge_->set(config_.admission_rate_qps);
    brownout_gauge_ = &registry.gauge("tero.serve.brownout_level");
    brownout_gauge_->set(0.0);
    query_ms_ = &registry.histogram("tero.serve.query_ms");
    if (config_.exemplar_seed != 0) {
      query_ms_->enable_exemplars(config_.exemplar_seed);
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->hits_counter = &registry.counter(obs::MetricsRegistry::
          labeled("tero.serve.cache_hits", {{"shard", shard_names_[i]}}));
      shards_[i]->misses_counter = &registry.counter(obs::MetricsRegistry::
          labeled("tero.serve.cache_misses", {{"shard", shard_names_[i]}}));
      shards_[i]->depth_gauge = &registry.gauge(obs::MetricsRegistry::labeled(
          "tero.serve.shard_queue_depth", {{"shard", shard_names_[i]}}));
    }
  }
}

std::uint64_t QueryService::publish(std::vector<SnapshotEntry> entries) {
  const obs::ScopedSpan span(config_.trace, "serve.publish", "serve");
  return install([&] { return publisher_.publish(std::move(entries)); });
}

void QueryService::publish(SnapshotPtr snapshot) {
  const obs::ScopedSpan span(config_.trace, "serve.publish", "serve");
  (void)install([&] {
    publisher_.publish(std::move(snapshot));
    return publisher_.epoch();
  });
}

std::uint64_t QueryService::install(
    const std::function<std::uint64_t()>& swap) {
  {
    // The outgoing epoch becomes the degraded path's "last good" snapshot.
    SnapshotPtr outgoing = publisher_.current();
    if (outgoing != nullptr) {
      std::lock_guard<std::mutex> lock(previous_mutex_);
      previous_ = std::move(outgoing);
    }
  }
  const std::uint64_t epoch = swap();
  publishes_.fetch_add(1, std::memory_order_relaxed);
  if (publishes_counter_ != nullptr) {
    publishes_counter_->add();
    epoch_gauge_->set(static_cast<double>(epoch));
  }
  return epoch;
}

std::string QueryService::cache_key(const Query& query,
                                    const std::string& entry) const {
  std::string key;
  switch (query.kind) {
    case QueryKind::kRangeCount: key = "rcount:"; break;
    case QueryKind::kRangeMean: key = "rmean:"; break;
    case QueryKind::kRangePercentile: key = "rpct:"; break;
    default: key = "rdrift:"; break;
  }
  if (query.kind == QueryKind::kRangePercentile ||
      query.kind == QueryKind::kRangeDrift) {
    key += store::format_double(query.param);
    key += ':';
  }
  // The store version pins the cached answer to the exact data it
  // summarized: any append/seal/compact/retention mints new keys and the
  // stale entries age out of the LRU.
  key += std::to_string(query.t0_ms);
  key += ':';
  key += std::to_string(query.t1_ms);
  key += ':';
  key += std::to_string(query.window_ms);
  key += ":v";
  key += std::to_string(config_.tsdb != nullptr ? config_.tsdb->version() : 0);
  key += ':';
  key += entry;
  return key;
}

std::size_t QueryService::shard_for(const Query& query) const {
  // The ring's lower_bound over the flat table, wrapping to the first point.
  const std::uint64_t hash = route_hash(query);
  auto it = std::lower_bound(
      route_.begin(), route_.end(), hash,
      [](const RoutePoint& point, std::uint64_t h) { return point.hash < h; });
  if (it == route_.end()) it = route_.begin();
  return it->shard;
}

double QueryService::wall_now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

QueryResponse answer(const Query& query, const Snapshot& snapshot) {
  QueryResponse response;
  response.epoch = snapshot.epoch();
  if (is_range_kind(query.kind)) {
    // Snapshots hold one epoch's distributions, not history; range kinds
    // only make sense against a QueryService with a time-series store.
    response.status = QueryStatus::kUnavailable;
    return response;
  }
  if (query.kind == QueryKind::kTopK) {
    const auto worst = snapshot.worst_locations(query.game, query.k);
    if (worst.empty()) {
      response.status = QueryStatus::kNotFound;
      return response;
    }
    response.status = QueryStatus::kOk;
    response.top.reserve(worst.size());
    for (const SnapshotEntry* entry : worst) {
      response.top.push_back({entry->location.to_string(), entry->box.p95});
    }
    response.value = response.top.front().value;
    return response;
  }

  const SnapshotEntry* entry = snapshot.find(query.location, query.game);
  if (entry == nullptr || entry->samples == 0) {
    response.status = QueryStatus::kNotFound;
    return response;
  }
  response.status = QueryStatus::kOk;
  switch (query.kind) {
    case QueryKind::kPercentile:
      response.value = entry->percentile(query.param);
      break;
    case QueryKind::kMean:
      response.value = entry->mean_ms;
      break;
    case QueryKind::kCount:
      response.value = static_cast<double>(entry->samples);
      break;
    case QueryKind::kEcdf:
      response.value = entry->ecdf(query.param);
      break;
    default:
      break;  // kTopK handled above; range kinds returned early
  }
  return response;
}

QueryResponse QueryService::answer_range(const Query& query,
                                         const std::string& key) const {
  QueryResponse response;
  response.epoch = publisher_.epoch();
  if (config_.tsdb == nullptr) {
    response.status = QueryStatus::kUnavailable;
    return response;
  }
  try {
    if (query.kind == QueryKind::kRangeDrift) {
      response.value = config_.tsdb->drift(key, query.t1_ms, query.param);
      response.status = QueryStatus::kOk;
      return response;
    }
    tsdb::RangeQuery range;
    range.key = key;
    range.t0_ms = query.t0_ms;
    range.t1_ms = query.t1_ms;
    range.window_ms = query.window_ms;
    range.pct = query.param;
    switch (query.kind) {
      case QueryKind::kRangeCount: range.agg = tsdb::RangeAgg::kCount; break;
      case QueryKind::kRangeMean: range.agg = tsdb::RangeAgg::kMean; break;
      default: range.agg = tsdb::RangeAgg::kPercentile; break;
    }
    response.series = config_.tsdb->range(range);
  } catch (const std::runtime_error&) {
    // The tsdb.read fault point (or an unreadable segment) — degrade
    // loudly, exactly like a downed shard with no previous epoch.
    response.status = QueryStatus::kUnavailable;
    return response;
  }
  std::uint64_t total = 0;
  for (const auto& point : response.series) total += point.count;
  if (total == 0) {
    response.status = QueryStatus::kNotFound;
    return response;
  }
  response.status = QueryStatus::kOk;
  response.value = response.series.back().value;
  return response;
}

QueryResponse QueryService::cached_range(const Query& query,
                                         const std::string& entry,
                                         Shard& shard) {
  const std::string key = cache_key(query, entry);
  std::optional<QueryResponse> cached;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    cached = shard.cache.get(key);
  }
  if (cached.has_value()) {
    // The key pins the tsdb version, so the series is current; only the
    // epoch stamp moves on, as it would for a fresh answer.
    cached->cached = true;
    cached->epoch = publisher_.epoch();
    if (hits_counter_ != nullptr) hits_counter_->add();
    if (shard.hits_counter != nullptr) shard.hits_counter->add();
    return std::move(*cached);
  }
  QueryResponse response = answer_range(query, entry);
  if (misses_counter_ != nullptr) misses_counter_->add();
  if (shard.misses_counter != nullptr) shard.misses_counter->add();
  // A failed read is transient; only answers pinned by the key are kept.
  if (response.status == QueryStatus::kUnavailable) return response;
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.cache.put(key, response);
  return response;
}

bool QueryService::try_admit(double now_s) {
  // Admission off: no wall clock read, no mutex.
  if (!admission_.enabled()) return true;
  const bool admitted =
      admission_.try_admit(now_s >= 0.0 ? now_s : wall_now_s());
  if (!admitted) denied_.add(DenyReason::kShed);
  return admitted;
}

void QueryService::set_admission_rate(double now_s, double rate_qps,
                                      double burst) {
  admission_.set_rate(now_s >= 0.0 ? now_s : wall_now_s(), rate_qps, burst);
  if (admission_rate_gauge_ != nullptr) admission_rate_gauge_->set(rate_qps);
}

void QueryService::set_brownout(BrownoutLevel level) {
  brownout_.store(static_cast<std::uint8_t>(level),
                  std::memory_order_relaxed);
  if (brownout_gauge_ != nullptr) {
    brownout_gauge_->set(
        static_cast<double>(static_cast<std::uint8_t>(level)));
  }
}

BrownoutLevel QueryService::brownout() const noexcept {
  return static_cast<BrownoutLevel>(
      brownout_.load(std::memory_order_relaxed));
}

fault::CircuitBreaker::State QueryService::breaker_state(
    std::size_t shard_index) const {
  if (shard_index >= shards_.size() ||
      shards_[shard_index]->breaker == nullptr) {
    return fault::CircuitBreaker::State::kClosed;
  }
  return shards_[shard_index]->breaker->state();
}

QueryResponse QueryService::query(const Query& query, double now_s) {
  if (!try_admit(now_s)) {
    if (queries_total_ != nullptr) queries_total_->add();
    QueryResponse response;
    response.status = QueryStatus::kShed;
    return response;
  }
  return query_admitted(query, now_s);
}

QueryResponse QueryService::degraded(const Query& query,
                                     std::uint64_t current_epoch) {
  SnapshotPtr last_good;
  if (!is_range_kind(query.kind)) {
    std::lock_guard<std::mutex> lock(previous_mutex_);
    last_good = previous_;
  }
  if (last_good == nullptr) {
    // Range kinds always land here: history has no stale epoch to fall
    // back on — a downed shard makes them explicitly unavailable.
    denied_.add(DenyReason::kUnavailable);
    QueryResponse response;
    response.status = QueryStatus::kUnavailable;
    response.epoch = current_epoch;
    return response;
  }
  if (degraded_counter_ != nullptr) degraded_counter_->add();
  QueryResponse response = answer(query, *last_good);
  response.stale = true;
  response.stale_age = current_epoch - last_good->epoch();
  return response;
}

QueryResponse QueryService::query_admitted(const Query& query, double now_s) {
  const obs::ScopedSpan span =
      query.trace_id != 0
          ? obs::ScopedSpan(config_.trace, "serve.query", "serve",
                            query.trace_id)
          : obs::ScopedSpan(config_.trace, "serve.query", "serve");
  const RecordTimer timer(query_ms_, query.trace_id);
  if (queries_total_ != nullptr) queries_total_->add();

  // Brownout front door (DESIGN.md §16): a pure function of (kind, level),
  // evaluated before any shard or cache state so the outcome is the same on
  // every replica. Refused kinds answer kBrownout — a denial, but a cheap
  // and explicit one, taken *before* the admission controller would shed.
  const BrownoutLevel level = brownout();
  BrownoutAction action;
  if (level != BrownoutLevel::kFull) {
    action = apply_brownout(query, level);
    if (action.refuse) {
      denied_.add(DenyReason::kBrownout);
      QueryResponse response;
      response.status = QueryStatus::kBrownout;
      response.epoch = publisher_.epoch();
      return response;
    }
  } else {
    action.query = query;
  }
  const Query& effective = action.query;

  // Valid until this thread's next acquire(): the slot holds the reference.
  const Snapshot* snapshot = publisher_.acquire();
  if (snapshot == nullptr && !is_range_kind(effective.kind)) {
    QueryResponse response;
    response.status = QueryStatus::kNoSnapshot;
    return response;
  }
  const std::uint64_t epoch =
      snapshot != nullptr ? snapshot->epoch() : publisher_.epoch();

  if (action.prefer_stale) {
    // Stale-tolerant rungs serve the previous epoch when one exists (an old
    // answer beats burning fresh-epoch compute); with no previous epoch the
    // fresh path below still answers.
    bool has_previous = false;
    {
      std::lock_guard<std::mutex> lock(previous_mutex_);
      has_previous = previous_ != nullptr;
    }
    if (has_previous) return degraded(effective, epoch);
  }

  Shard& shard = *shards_[shard_for(effective)];

  if (shard.fault_point != nullptr) {
    const double now = now_s >= 0.0 ? now_s : wall_now_s();
    if (!shard.breaker->allow(now)) {
      // Breaker open: skip the shard entirely (no fault-point hit — the
      // whole point of breaking is to stop poking a known-bad endpoint).
      return degraded(effective, epoch);
    }
    const fault::FaultDecision decision = shard.fault_point->hit();
    if (decision.kind == fault::FaultKind::kError ||
        decision.kind == fault::FaultKind::kCrash) {
      shard.breaker->on_failure(now);
      return degraded(effective, epoch);
    }
    shard.breaker->on_success();
  }
  // The depth gauge is inflight's only reader: with metrics off, skip both
  // read-modify-writes on the shared line.
  if (shard.depth_gauge != nullptr) {
    shard.depth_gauge->set(static_cast<double>(
        shard.inflight.fetch_add(1, std::memory_order_relaxed) + 1));
  }

  // Snapshot kinds read immutable, pre-sorted values in O(1) or O(log n):
  // no shard lock, no cache key.
  QueryResponse response =
      is_range_kind(effective.kind)
          ? cached_range(effective,
                         entry_key(effective.location, effective.game), shard)
          : answer(effective, *snapshot);
  if (response.status == QueryStatus::kNotFound &&
      not_found_counter_ != nullptr) {
    not_found_counter_->add();
  }

  if (shard.depth_gauge != nullptr) {
    shard.inflight.fetch_sub(1, std::memory_order_relaxed);
  }
  return response;
}

std::uint64_t QueryService::cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->cache.hits();
  }
  return total;
}

std::uint64_t QueryService::cache_misses() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->cache.misses();
  }
  return total;
}

std::uint64_t QueryService::shed_count() const { return admission_.shed(); }

std::function<void(const core::Dataset&)> publish_hook(
    QueryService& service) {
  return [&service](const core::Dataset& dataset) {
    service.publish(entries_from(dataset));
  };
}

}  // namespace tero::serve
