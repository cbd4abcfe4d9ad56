#include "serve/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace tero::serve {

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.reserve(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  if (!cdf_.empty()) cdf_.back() = 1.0;  // close the interval exactly
}

std::size_t ZipfSampler::sample(util::Rng& rng) const {
  if (cdf_.empty()) return 0;
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

std::vector<Query> generate_queries(const Snapshot& snapshot,
                                    const LoadGenConfig& config) {
  const auto entries = snapshot.entries();
  const ZipfSampler zipf(entries.size(), config.zipf_s);
  std::vector<Query> queries(config.queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // Everything about query i comes from (seed, i): thread- and
    // order-independent by construction.
    util::Rng rng = util::Rng::indexed(config.seed, i);
    Query& query = queries[i];
    query.trace_id = i + 1;  // nonzero span id shared by trace + exemplars
    if (entries.empty()) {
      query.kind = QueryKind::kCount;
      continue;  // served as kNotFound; keeps the stream well-defined
    }
    const SnapshotEntry& entry = entries[zipf.sample(rng)];
    query.location = entry.location;
    query.game = entry.game;
    if (rng.bernoulli(config.p_topk)) {
      query.kind = QueryKind::kTopK;
      query.k = config.topk;
      continue;
    }
    const double u = rng.uniform();
    if (u < config.p_percentile) {
      query.kind = QueryKind::kPercentile;
      // A small palette of round percentiles, the way real dashboards ask
      // (everyone wants p50/p95/p99); every replay checksum depends on it.
      static constexpr double kPercentiles[] = {5, 25, 50, 75, 90, 95, 99};
      query.param = kPercentiles[rng.uniform_int(0, 6)];
    } else if (u < config.p_percentile + (1.0 - config.p_percentile) / 3.0) {
      query.kind = QueryKind::kMean;
    } else if (u <
               config.p_percentile + 2.0 * (1.0 - config.p_percentile) / 3.0) {
      query.kind = QueryKind::kCount;
    } else {
      query.kind = QueryKind::kEcdf;
      query.param = std::floor(rng.uniform(
          std::min(entry.box.p5, entry.box.p95),
          std::max(entry.box.p5, entry.box.p95) + 1.0));
    }
  }
  return queries;
}

std::string_view to_string(EventAction action) noexcept {
  switch (action) {
    case EventAction::kKill: return "kill";
    case EventAction::kRestart: return "restart";
    case EventAction::kJoin: return "join";
    case EventAction::kLeave: return "leave";
    case EventAction::kPartition: return "partition";
    case EventAction::kHeal: return "heal";
    case EventAction::kRepublish: return "republish";
    case EventAction::kStoreDown: return "store-down";
    case EventAction::kStoreUp: return "store-up";
  }
  return "kill";
}

EventCursor::EventCursor(std::vector<Event> events)
    : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_ms < b.at_ms;
                   });
}

const Event* EventCursor::next_due(std::uint64_t now_ms) {
  if (next_ >= events_.size() || events_[next_].at_ms > now_ms) {
    return nullptr;
  }
  return &events_[next_++];
}

void Tally::add(const Outcome& outcome) noexcept {
  ++issued;
  checksum ^= outcome.hash;
  if (outcome.stale) ++stale;
  switch (outcome.status) {
    case QueryStatus::kOk: ++ok; break;
    case QueryStatus::kNotFound: ++not_found; break;
    case QueryStatus::kShed: ++shed; break;
    case QueryStatus::kNoSnapshot: ++no_snapshot; break;
    case QueryStatus::kUnavailable: ++unavailable; break;
    case QueryStatus::kBrownout: ++brownout; break;
  }
}

void Tally::add_all(std::span<const Outcome> outcomes) noexcept {
  for (const Outcome& outcome : outcomes) add(outcome);
}

double Tally::share(std::size_t count) const noexcept {
  return issued > 0
             ? static_cast<double>(count) / static_cast<double>(issued)
             : 0.0;
}

double Tally::availability() const noexcept {
  return issued > 0 ? 1.0 - share(unavailable + no_snapshot) : 1.0;
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void print_tally(std::ostream& os, const Tally& tally) {
  os << "  issued " << tally.issued << ": ok " << tally.ok << ", not_found "
     << tally.not_found << ", shed " << tally.shed << ", stale "
     << tally.stale << ", unavailable " << tally.unavailable << ", brownout "
     << tally.brownout;
  if (tally.no_snapshot > 0) os << ", no_snapshot " << tally.no_snapshot;
  os << "\n  result checksum " << hex64(tally.checksum) << "\n";
}

LoadTestReport run_loadtest(QueryService& service,
                            const LoadGenConfig& config,
                            util::ThreadPool* pool) {
  LoadTestReport report;
  const SnapshotPtr snapshot = service.snapshot();
  if (snapshot == nullptr) {
    report.issued = config.queries;
    report.no_snapshot = config.queries;
    return report;
  }
  const std::vector<Query> queries = generate_queries(*snapshot, config);

  // Routing: open-loop shed decisions happen serially in arrival order
  // against virtual time, so they depend only on (arrival times, bucket
  // config), never on scheduling. The closed loop admits everything and
  // rides a 1000 qps nominal clock purely to give the telemetry a time axis.
  const bool open_loop = config.offered_qps > 0.0;
  const ArrivalClock clock{open_loop ? config.offered_qps : 1000.0};
  std::vector<char> admitted(queries.size(), 1);
  if (open_loop) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      admitted[i] = service.try_admit(clock.at_s(i)) ? 1 : 0;
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const std::vector<Outcome> outcomes =
      execute_all(pool, queries.size(), [&](std::size_t i) {
        if (admitted[i] != 0) return service.query_admitted(queries[i]);
        QueryResponse shed;
        shed.status = QueryStatus::kShed;
        return shed;
      });
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  if (report.wall_ms > 0.0) {
    report.achieved_qps =
        static_cast<double>(queries.size()) / (report.wall_ms / 1e3);
  }

  // Telemetry replay (DESIGN.md §13): the tally, loadgen-owned counters and
  // timeline scrapes all walk the outcomes serially in arrival order on the
  // virtual clock. tero.loadgen.latency_ms records a modeled latency, a
  // pure function of (seed, i, outcome), which is what makes timeline
  // snapshots, SLO verdicts and exemplar selections thread-count invariant.
  obs::Counter* sent_counter = nullptr;
  obs::Counter* status_counters[6] = {};  // indexed by QueryStatus
  obs::Counter* stale_counter = nullptr;
  obs::Histogram* latency_hist = nullptr;
  if (config.metrics != nullptr) {
    auto& registry = *config.metrics;
    sent_counter = &registry.counter("tero.loadgen.queries");
    status_counters[static_cast<int>(QueryStatus::kOk)] =
        &registry.counter("tero.loadgen.ok");
    status_counters[static_cast<int>(QueryStatus::kNotFound)] =
        &registry.counter("tero.loadgen.not_found");
    status_counters[static_cast<int>(QueryStatus::kShed)] =
        &registry.counter("tero.loadgen.shed");
    stale_counter = &registry.counter("tero.loadgen.stale");
    status_counters[static_cast<int>(QueryStatus::kUnavailable)] =
        &registry.counter("tero.loadgen.unavailable");
    status_counters[static_cast<int>(QueryStatus::kBrownout)] =
        &registry.counter("tero.loadgen.brownout");
    latency_hist = &registry.histogram("tero.loadgen.latency_ms");
    if (config.exemplar_seed != 0) {
      latency_hist->enable_exemplars(config.exemplar_seed);
    }
  }
  const std::uint64_t latency_seed = util::mix_seed(config.seed, 0x6c67);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    if (config.timeline != nullptr) config.timeline->advance_to(clock.at_ms(i));
    report.add(outcome);
    if (config.metrics == nullptr) continue;
    sent_counter->add();
    if (outcome.stale) stale_counter->add();
    if (obs::Counter* counter =
            status_counters[static_cast<int>(outcome.status)];
        counter != nullptr) {
      counter->add();
    }
    // Modeled service time: a light-tailed base draw, stretched by the
    // outcome (degraded answers are slow, sheds are a fast rejection).
    util::Rng rng = util::Rng::indexed(latency_seed, i);
    double virtual_ms = 0.2 + rng.exponential(2.0);
    switch (outcome.status) {
      case QueryStatus::kOk:
        if (outcome.stale) virtual_ms = 2.0 + 4.0 * virtual_ms;
        break;
      case QueryStatus::kShed: virtual_ms = 0.05; break;
      case QueryStatus::kBrownout: virtual_ms = 0.05; break;
      case QueryStatus::kUnavailable: virtual_ms = 25.0 + virtual_ms; break;
      case QueryStatus::kNotFound:
      case QueryStatus::kNoSnapshot: break;
    }
    latency_hist->record(virtual_ms, static_cast<std::uint64_t>(i) + 1);
  }
  if (config.timeline != nullptr && !outcomes.empty()) {
    config.timeline->flush(clock.at_ms(outcomes.size()));
  }

  if (const obs::Histogram* latency = service.latency_histogram();
      latency != nullptr && latency->count() > 0) {
    report.p50_ms = latency->quantile(0.50);
    report.p95_ms = latency->quantile(0.95);
    report.p99_ms = latency->quantile(0.99);
  }
  return report;
}

}  // namespace tero::serve
