#include "cluster/loadgen.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "util/rng.hpp"

namespace tero::cluster {

namespace {

constexpr std::uint64_t kLatencySalt = 0x636c;  // "cl"

void apply_event(Cluster& cluster, const serve::Event& event,
                 std::uint64_t now_ms) {
  switch (event.action) {
    case serve::EventAction::kKill:
      cluster.kill(event.target);
      break;
    case serve::EventAction::kRestart:
      cluster.restart(event.target, now_ms);
      break;
    case serve::EventAction::kJoin:
      (void)cluster.join(now_ms);
      break;
    case serve::EventAction::kLeave: {
      const auto names = cluster.node_names();
      if (event.target < names.size()) {
        (void)cluster.leave(names[event.target]);
      }
      break;
    }
    case serve::EventAction::kPartition:
      cluster.partition(event.target, /*severed=*/true);
      break;
    case serve::EventAction::kHeal:
      cluster.partition(event.target, /*severed=*/false);
      break;
    case serve::EventAction::kRepublish:
      (void)cluster.republish(now_ms);
      break;
    case serve::EventAction::kStoreDown:
    case serve::EventAction::kStoreUp:
      break;  // the fleet serves snapshots only
  }
}

}  // namespace

ClusterLoadReport run_cluster_loadtest(Cluster& cluster,
                                       const ClusterLoadConfig& config,
                                       util::ThreadPool* pool) {
  ClusterLoadReport report;
  const serve::SnapshotPtr base = cluster.snapshot();
  if (base == nullptr) {
    report.issued = config.queries;
    report.no_snapshot = config.queries;
    return report;
  }

  serve::LoadGenConfig gen;
  gen.queries = config.queries;
  gen.seed = config.seed;
  gen.zipf_s = config.zipf_s;
  gen.p_topk = config.p_topk;
  const std::vector<serve::Query> queries =
      serve::generate_queries(*base, gen);

  obs::Counter* sent_counter = nullptr;
  obs::Counter* served_counter = nullptr;
  obs::Counter* stale_counter = nullptr;
  obs::Counter* unavailable_counter = nullptr;
  obs::Histogram* latency_hist = nullptr;
  if (config.metrics != nullptr) {
    auto& registry = *config.metrics;
    sent_counter = &registry.counter("tero.cluster.loadgen.queries");
    served_counter = &registry.counter("tero.cluster.loadgen.served");
    stale_counter = &registry.counter("tero.cluster.loadgen.stale");
    unavailable_counter =
        &registry.counter("tero.cluster.loadgen.unavailable");
    latency_hist = &registry.histogram("tero.cluster.loadgen.latency_ms");
  }

  // Routing: scripted events, breaker transitions, replication applies,
  // timeline scrapes and the modeled latency histogram all happen here,
  // serially in arrival order on the virtual clock.
  const serve::ArrivalClock clock{
      config.offered_qps > 0.0 ? config.offered_qps : 5000.0};
  serve::EventCursor events(config.events);
  const std::uint64_t latency_seed =
      util::mix_seed(config.seed, kLatencySalt);
  std::vector<RouteDecision> decisions(queries.size());
  report.stale_age_hist.assign(
      static_cast<std::size_t>(cluster.config().staleness_budget) + 1, 0);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t arrival_ms = clock.at_ms(i);
    while (const serve::Event* event = events.next_due(arrival_ms)) {
      apply_event(cluster, *event, arrival_ms);
    }
    if (config.timeline != nullptr) config.timeline->advance_to(arrival_ms);
    decisions[i] = cluster.route(queries[i], arrival_ms, i, config.policy);

    const RouteDecision& decision = decisions[i];
    report.failover_attempts +=
        decision.attempts > 0 ? decision.attempts - 1 : 0;
    if (decision.snapshot != nullptr) {
      if (decision.stale) {
        report.stale_age_max =
            std::max(report.stale_age_max, decision.stale_age);
      }
      if (decision.stale_age < report.stale_age_hist.size()) {
        ++report.stale_age_hist[decision.stale_age];
      }
    }
    if (sent_counter != nullptr) {
      sent_counter->add();
      if (decision.snapshot != nullptr) {
        served_counter->add();
        if (decision.stale) stale_counter->add();
      } else if (decision.no_answer == serve::QueryStatus::kUnavailable) {
        unavailable_counter->add();
      }
      // Modeled service time: pure function of (seed, i, route outcome) —
      // stale reads pay the follower catch-up tax, unavailable queries pay
      // the full failover walk. Never wall time.
      util::Rng rng = util::Rng::indexed(latency_seed, i);
      double virtual_ms = 0.2 + rng.exponential(2.0);
      if (decision.snapshot == nullptr) {
        virtual_ms = 25.0 + virtual_ms;
      } else if (decision.stale) {
        virtual_ms = 2.0 + 4.0 * virtual_ms;
      }
      if (decision.attempts > 1) {
        virtual_ms +=
            0.5 * static_cast<double>(decision.attempts - 1);
      }
      latency_hist->record(virtual_ms, static_cast<std::uint64_t>(i) + 1);
    }
  }
  // Fire any events scripted past the last arrival, then flush the
  // timeline so the final partial interval is captured.
  const std::uint64_t end_ms = clock.at_ms(queries.size());
  while (const serve::Event* event = events.next_due(end_ms)) {
    apply_event(cluster, *event, end_ms);
  }
  report.events_applied = events.fired();
  if (config.timeline != nullptr && !queries.empty()) {
    config.timeline->flush(end_ms);
  }

  // Execute: answer each fixed decision against its immutable snapshot.
  report.add_all(serve::execute_all(pool, queries.size(), [&](std::size_t i) {
    const RouteDecision& decision = decisions[i];
    serve::QueryResponse response;
    if (decision.snapshot == nullptr) {
      response.status = decision.no_answer;
      return response;
    }
    response = serve::answer(queries[i], *decision.snapshot);
    if (decision.stale) {
      // STALE{age}: identical marking to the degraded serve path — part of
      // the answer's meaning, hashed into the checksum.
      response.stale = true;
      response.stale_age = decision.stale_age;
    }
    return response;
  }));
  if (latency_hist != nullptr && latency_hist->count() > 0) {
    report.modeled_p50_ms = latency_hist->quantile(0.50);
    report.modeled_p95_ms = latency_hist->quantile(0.95);
    report.modeled_p99_ms = latency_hist->quantile(0.99);
  }
  return report;
}

}  // namespace tero::cluster
