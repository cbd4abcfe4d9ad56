// Cluster benchmark (DESIGN.md §14): the deterministic multi-node serving
// cluster under membership churn. Three sweeps:
//
//   determinism — the same churny sweep (kill + join + republish mid-run) at
//                 1 thread and at the machine width; checksum, availability
//                 and the staleness distribution must match bit-for-bit.
//   kill        — single-node kill under full telemetry: availability floor,
//                 bounded staleness, and the breaker burn-rate SLO firing
//                 within one scrape of the kill.
//   join        — live resharding: remap fraction against the 2/n bound and
//                 the full-keyspace ownership audit.
//
// Writes BENCH_cluster.json (parse-checked by scripts/ci.sh cluster-smoke
// via bench_json_check; the availability floor and checksum match are awk
// gates there too).
//
//   bench_cluster [--tiny]
//
// --tiny shrinks the world and query counts to CI-smoke scale (~1 s).

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "cluster/cluster.hpp"
#include "cluster/loadgen.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "serve/service.hpp"
#include "synth/sessions.hpp"
#include "tero/pipeline.hpp"
#include "util/thread_pool.hpp"

using namespace tero;

namespace {

std::vector<serve::SnapshotEntry> build_entries(bool tiny) {
  synth::WorldConfig world_config;
  world_config.seed = 11;
  world_config.num_streamers = tiny ? 60 : 240;
  world_config.p_twitter = 0.9;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = tiny ? 3 : 5;
  synth::SessionGenerator generator(world, behavior, 3);
  const auto streams = generator.generate();

  core::TeroConfig config = bench::fast_pipeline(11);
  core::Pipeline pipeline(config);
  const core::Dataset dataset = pipeline.run(world, streams);
  return serve::entries_from(dataset);
}

cluster::ClusterConfig base_config() {
  cluster::ClusterConfig config;
  config.nodes = 5;
  config.replicas = 2;
  config.staleness_budget = 2;
  config.seed = 21;
  return config;
}

struct SweepResult {
  cluster::ClusterLoadReport report;
  double wall_ms = 0.0;
};

/// One sweep against a caller-owned fleet. Route state mutates during the
/// sweep, so determinism comparisons rebuild an identical cluster per run.
SweepResult run_sweep(cluster::Cluster& fleet,
                      const std::vector<serve::SnapshotEntry>& entries,
                      const cluster::ClusterLoadConfig& load,
                      std::size_t threads) {
  fleet.publish(std::vector<serve::SnapshotEntry>(entries), 0);
  util::ThreadPool pool(threads);
  SweepResult result;
  const auto start = std::chrono::steady_clock::now();
  result.report =
      cluster::run_cluster_loadtest(fleet, load, threads > 1 ? &pool : nullptr);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  const std::size_t queries = tiny ? 16000 : 120000;
  const std::size_t hw = util::ThreadPool::resolve(0);
  const std::size_t wide = hw > 1 ? hw : 2;

  bench::header("cluster: snapshot build");
  const auto entries = build_entries(tiny);
  bench::note("snapshot entries: " + std::to_string(entries.size()) +
              ", queries per sweep: " + std::to_string(queries) +
              ", fleet: 5 nodes x 2 replicas, budget 2 epochs");

  // ---- determinism: churny sweep at 1 thread vs machine width -------------
  // Kill, join and republish all fire mid-sweep; the serial routing phase
  // fixes every decision before the parallel evaluation runs, so the
  // response checksum and every availability/staleness number must be
  // bit-identical across thread counts.
  bench::header("cluster: determinism under churn (1 thread vs " +
                std::to_string(wide) + ")");
  cluster::ClusterLoadConfig churn;
  churn.queries = queries;
  churn.seed = 21;
  churn.offered_qps = static_cast<double>(queries) / 4.0;  // 4 s virtual
  churn.events = {
      {500, serve::EventAction::kRepublish, 0},
      {1000, serve::EventAction::kKill, 1},
      {1500, serve::EventAction::kJoin, 0},
      {2000, serve::EventAction::kRepublish, 0},
      {2500, serve::EventAction::kRestart, 1},
      {3000, serve::EventAction::kRepublish, 0},
  };
  util::Table det_table(
      {"threads", "kqps", "avail", "stale", "modeled p99 ms", "checksum"});
  cluster::Cluster serial_fleet(base_config());
  cluster::Cluster parallel_fleet(base_config());
  const SweepResult serial = run_sweep(serial_fleet, entries, churn, 1);
  const SweepResult parallel = run_sweep(parallel_fleet, entries, churn, wide);
  for (const auto* result : {&serial, &parallel}) {
    det_table.add_row(
        {result == &serial ? "1" : std::to_string(wide),
         util::fmt_double(static_cast<double>(result->report.issued) /
                              result->wall_ms, 1),
         util::fmt_percent(result->report.availability(), 2),
         util::fmt_percent(result->report.share(result->report.stale), 2),
         util::fmt_double(result->report.modeled_p99_ms, 2),
         serve::hex64(result->report.checksum)});
  }
  det_table.print(std::cout);
  const bool checksum_match =
      serial.report.checksum == parallel.report.checksum;
  const bool stats_match =
      serial.report.availability() == parallel.report.availability() &&
      serial.report.stale_age_hist == parallel.report.stale_age_hist &&
      serial.report.unavailable == parallel.report.unavailable;
  bench::note(std::string("checksums ") +
              (checksum_match ? "match" : "MISMATCH") +
              ", availability/staleness " +
              (stats_match ? "match" : "MISMATCH") +
              " (kill + join + republish all mid-sweep)");

  // ---- kill: availability floor + breaker SLO -----------------------------
  bench::header("cluster: single-node kill (telemetry + breaker SLO)");
  obs::MetricsRegistry registry;
  obs::TimelineConfig timeline_config;
  timeline_config.scrape_every_ms = 1000;
  timeline_config.prefixes = {"tero.cluster.", "tero.fault.breaker"};
  obs::MetricsTimeline timeline(registry, timeline_config);
  obs::SloTracker tracker;
  const std::string slo_name = tracker.add(
      "slo breaker: value(tero.fault.breaker{endpoint=node-1}) < 1 "
      "over 10s window, budget 1%");
  tracker.attach(timeline);

  constexpr std::uint64_t kKillMs = 3000;
  cluster::ClusterLoadConfig kill_load;
  kill_load.queries = queries;
  kill_load.seed = 21;
  kill_load.offered_qps = static_cast<double>(queries) / 8.0;  // 8 s virtual
  kill_load.metrics = &registry;
  kill_load.timeline = &timeline;
  // Republishes after the kill keep the epoch moving, so the dead leader's
  // ranges are served by followers that visibly lag — STALE{age}, never
  // past the budget.
  kill_load.events = {
      {kKillMs, serve::EventAction::kKill, 1},
      {4000, serve::EventAction::kRepublish, 0},
      {5000, serve::EventAction::kRepublish, 0},
      {6000, serve::EventAction::kRepublish, 0},
  };
  cluster::ClusterConfig kill_config = base_config();
  kill_config.metrics = &registry;
  cluster::Cluster kill_cluster(kill_config);
  const SweepResult kill_run =
      run_sweep(kill_cluster, entries, kill_load, wide);

  std::uint64_t first_fire_ms = 0;
  for (const auto& alert : tracker.alerts()) {
    if (alert.firing && alert.slo == "breaker") {
      first_fire_ms = alert.t_ms;
      break;
    }
  }
  const bool slo_fired = tracker.fired(slo_name);
  const std::uint64_t fire_delay_ms =
      slo_fired && first_fire_ms > kKillMs ? first_fire_ms - kKillMs : 0;
  bench::note("availability " +
              util::fmt_percent(kill_run.report.availability(), 3) +
              ", stale " +
              util::fmt_percent(kill_run.report.share(kill_run.report.stale),
                                2) +
              " (max age " + std::to_string(kill_run.report.stale_age_max) +
              ", budget 2), failover attempts " +
              std::to_string(kill_run.report.failover_attempts));
  serve::print_tally(std::cout, kill_run.report);
  bench::note(std::string("breaker SLO ") +
              (slo_fired ? "fired " + std::to_string(fire_delay_ms) +
                               " ms after the kill"
                         : "DID NOT FIRE") +
              " (scrape interval 1000 ms)");
  bench::note("repl lag gauge of the dead node: " +
              util::fmt_double(timeline.gauge_value(
                                   "tero.cluster.repl_lag{node=node-1}"), 0) +
              " epochs at last scrape");

  // ---- join: live resharding ----------------------------------------------
  bench::header("cluster: live resharding (join mid-sweep)");
  cluster::ClusterLoadConfig join_load;
  join_load.queries = queries;
  join_load.seed = 21;
  join_load.offered_qps = static_cast<double>(queries) / 4.0;
  join_load.events = {{2000, serve::EventAction::kJoin, 0}};
  cluster::Cluster join_cluster(base_config());
  const SweepResult join_run = run_sweep(join_cluster, entries, join_load, wide);
  const cluster::OwnershipAudit audit = join_cluster.audit();
  const double remap_fraction = join_cluster.last_remap().moved_fraction();
  bench::note("remap fraction " + util::fmt_percent(remap_fraction, 2) +
              " (bound 2/n = " +
              util::fmt_percent(2.0 / static_cast<double>(
                                          join_cluster.node_count()), 2) +
              "), ownership audit " + (audit.ok ? "ok" : "FAILED") + " (" +
              std::to_string(audit.keys) + " keys, " +
              std::to_string(audit.lost) + " lost, " +
              std::to_string(audit.double_owned) + " double-owned)");
  bench::note("availability through the join " +
              util::fmt_percent(join_run.report.availability(), 3));

  // ---- machine-readable report --------------------------------------------
  std::ofstream out("BENCH_cluster.json");
  out << "{\n";
  out << "  \"determinism\": {\"threads_wide\": " << wide
      << ", \"checksum_serial\": \"" << serve::hex64(serial.report.checksum)
      << "\", \"checksum_parallel\": \"" << serve::hex64(parallel.report.checksum)
      << "\", \"checksum_match\": " << (checksum_match ? "true" : "false")
      << ", \"stats_match\": " << (stats_match ? "true" : "false")
      << ", \"availability\": " << serial.report.availability()
      << ", \"stale_fraction\": " << serial.report.share(serial.report.stale)
      << "},\n";
  out << "  \"kill\": {\"availability\": " << kill_run.report.availability()
      << ", \"stale_fraction\": "
      << kill_run.report.share(kill_run.report.stale)
      << ", \"stale_age_max\": " << kill_run.report.stale_age_max
      << ", \"staleness_budget\": 2"
      << ", \"failover_attempts\": " << kill_run.report.failover_attempts
      << ", \"unavailable\": " << kill_run.report.unavailable
      << ", \"slo_fired\": " << (slo_fired ? "true" : "false")
      << ", \"slo_fire_delay_ms\": " << fire_delay_ms
      << ", \"modeled_p50_ms\": " << kill_run.report.modeled_p50_ms
      << ", \"modeled_p99_ms\": " << kill_run.report.modeled_p99_ms
      << "},\n";
  out << "  \"join\": {\"remap_fraction\": " << remap_fraction
      << ", \"remap_bound\": "
      << 2.0 / static_cast<double>(join_cluster.node_count())
      << ", \"audit_ok\": " << (audit.ok ? "true" : "false")
      << ", \"keys\": " << audit.keys
      << ", \"availability\": " << join_run.report.availability() << "},\n";
  out << "  \"throughput\": [\n";
  out << "    {\"threads\": 1, \"kqps\": "
      << static_cast<double>(serial.report.issued) / serial.wall_ms << "},\n";
  out << "    {\"threads\": " << wide << ", \"kqps\": "
      << static_cast<double>(parallel.report.issued) / parallel.wall_ms
      << "}\n";
  out << "  ],\n";
  out << "  \"stale_age_hist\": [";
  for (std::size_t age = 0; age < serial.report.stale_age_hist.size();
       ++age) {
    out << (age > 0 ? ", " : "") << serial.report.stale_age_hist[age];
  }
  out << "]\n";
  out << "}\n";
  bench::note("wrote BENCH_cluster.json");

  return checksum_match && stats_match && audit.ok ? 0 : 1;
}
