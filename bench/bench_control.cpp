// Closed-loop overload control benchmark (DESIGN.md §16): the policy-vs-SLO
// frontier. Three policies — static baseline, reactive multi-window
// burn-rate, predictive slope-extrapolation — each swept over offered load
// from 0.1x to 10x of nominal capacity under the standard chaos plan (node
// kill, replication delay, tsdb read errors). Sections:
//
//   frontier    — policy x multiplier grid: shed/denied/stale fractions,
//                 p99, SLO good fraction, peak ladder rung and fleet size.
//   comparison  — the acceptance gate numbers: at 2x and 4x the reactive
//                 policy must shed measurably less than the static baseline,
//                 and its ladder must have engaged before its first shed.
//   determinism — the reactive 4x cell at 1 thread vs the machine width:
//                 decision log bytes, decision digest and response checksum
//                 must match exactly.
//
// Writes BENCH_control.json (parse-checked by scripts/ci.sh control-smoke
// via bench_json_check; the comparison and determinism fields are awk gates
// there too).
//
//   bench_control [--tiny]
//
// --tiny shrinks the grid and virtual duration to CI-smoke scale (~1 s).

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "control/controller.hpp"
#include "control/sweep.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "synth/sessions.hpp"
#include "tero/pipeline.hpp"
#include "util/thread_pool.hpp"

using namespace tero;

namespace {

std::vector<serve::SnapshotEntry> build_entries(bool tiny) {
  synth::WorldConfig world_config;
  world_config.seed = 13;
  world_config.num_streamers = tiny ? 60 : 240;
  world_config.p_twitter = 0.9;
  const synth::World world(world_config);
  synth::BehaviorConfig behavior;
  behavior.days = tiny ? 3 : 5;
  synth::SessionGenerator generator(world, behavior, 3);
  const auto streams = generator.generate();

  core::TeroConfig config = bench::fast_pipeline(13);
  core::Pipeline pipeline(config);
  const core::Dataset dataset = pipeline.run(world, streams);
  return serve::entries_from(dataset);
}

control::SweepConfig cell_config(bool tiny, control::Policy policy,
                                 double multiplier, std::uint64_t seed) {
  control::SweepConfig config;
  config.seed = seed;
  config.load_multiplier = multiplier;
  config.controller.policy = policy;
  if (tiny) {
    config.duration_s = 2.5;
    config.publish_every_s = 0.5;
    config.controller.shard_unit_qps = 400.0;
    config.controller.min_shards = 2;
    config.controller.initial_shards = 2;
    config.controller.max_shards = 4;
    config.controller.base_channel_capacity = 1024;
    config.controller.min_channel_capacity = 64;
  } else {
    config.duration_s = 8.0;
    config.publish_every_s = 1.0;
    config.controller.shard_unit_qps = 1000.0;
    config.controller.min_shards = 2;
    config.controller.initial_shards = 4;
    config.controller.max_shards = 8;
  }
  config.events = control::standard_chaos_events(config.duration_s);
  return config;
}

std::string mult_key(double multiplier) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", multiplier);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiny") == 0) tiny = true;
  }
  constexpr std::uint64_t kSeed = 21;
  const std::size_t hw = util::ThreadPool::resolve(0);
  const std::size_t wide = hw > 1 ? hw : 2;
  util::ThreadPool pool(wide);

  bench::header("control: snapshot build");
  const auto entries = build_entries(tiny);
  const std::vector<double> multipliers =
      tiny ? std::vector<double>{0.5, 2.0, 4.0}
           : std::vector<double>{0.1, 0.5, 1.0, 2.0, 4.0, 10.0};
  const control::Policy policies[] = {control::Policy::kStatic,
                                      control::Policy::kReactive,
                                      control::Policy::kPredictive};
  bench::note("snapshot entries: " + std::to_string(entries.size()) +
              ", chaos plan: shard kill + repl delay + tsdb errors, seed " +
              std::to_string(kSeed));

  // ---- frontier: policy x offered-load grid -------------------------------
  bench::header("control: policy-vs-SLO frontier (0.1x -> 10x offered load)");
  struct Cell {
    control::Policy policy;
    double multiplier;
    control::SweepReport report;
  };
  std::vector<Cell> cells;
  const auto shed = [](const control::SweepReport& r) {
    return r.share(r.shed);
  };
  const auto denied = [](const control::SweepReport& r) {
    return r.share(r.shed + r.brownout + r.unavailable);
  };
  util::Table table({"policy", "mult", "shed", "denied", "stale",
                     "modeled p99 ms",
                     "slo good", "level", "shards", "ladder ms", "shed ms"});
  for (const control::Policy policy : policies) {
    for (const double multiplier : multipliers) {
      const control::SweepReport report = control::run_control_sweep(
          entries, cell_config(tiny, policy, multiplier, kSeed), &pool);
      table.add_row(
          {std::string(control::to_string(policy)), mult_key(multiplier),
           util::fmt_percent(shed(report), 2),
           util::fmt_percent(denied(report), 2),
           util::fmt_percent(report.share(report.stale), 2),
           util::fmt_double(report.modeled_p99_ms, 2),
           util::fmt_percent(report.slo_good_fraction, 2),
           std::to_string(report.max_level),
           std::to_string(report.peak_shards),
           std::to_string(report.first_ladder_ms),
           std::to_string(report.first_shed_ms)});
      cells.push_back({policy, multiplier, report});
    }
  }
  table.print(std::cout);

  const auto cell = [&](control::Policy policy,
                        double multiplier) -> const control::SweepReport& {
    for (const Cell& c : cells) {
      if (c.policy == policy && c.multiplier == multiplier) return c.report;
    }
    throw std::logic_error("missing frontier cell");
  };

  // ---- comparison: the acceptance-gate numbers ----------------------------
  bench::header("control: reactive vs static under overload");
  const control::SweepReport& static_2x = cell(control::Policy::kStatic, 2.0);
  const control::SweepReport& static_4x = cell(control::Policy::kStatic, 4.0);
  const control::SweepReport& reactive_2x =
      cell(control::Policy::kReactive, 2.0);
  const control::SweepReport& reactive_4x =
      cell(control::Policy::kReactive, 4.0);
  const control::SweepReport& predictive_4x =
      cell(control::Policy::kPredictive, 4.0);
  const bool improved_2x = shed(reactive_2x) < shed(static_2x);
  const bool improved_4x = shed(reactive_4x) < shed(static_4x);
  const bool ladder_first = reactive_4x.ladder_engaged_before_shed;
  bench::note("2x: static sheds " +
              util::fmt_percent(shed(static_2x), 2) + ", reactive sheds " +
              util::fmt_percent(shed(reactive_2x), 2) +
              (improved_2x ? " (improved)" : " (NOT IMPROVED)"));
  bench::note("4x: static sheds " +
              util::fmt_percent(shed(static_4x), 2) + ", reactive sheds " +
              util::fmt_percent(shed(reactive_4x), 2) +
              (improved_4x ? " (improved)" : " (NOT IMPROVED)"));
  bench::note(std::string("reactive 4x ladder engaged ") +
              (ladder_first ? "before" : "AFTER") + " the first shed (" +
              std::to_string(reactive_4x.first_ladder_ms) + " ms vs " +
              std::to_string(reactive_4x.first_shed_ms) + " ms)");

  // ---- determinism: decision log across thread counts ---------------------
  bench::header("control: decision-log determinism (1 thread vs " +
                std::to_string(wide) + ")");
  const control::SweepConfig det_config =
      cell_config(tiny, control::Policy::kReactive, 4.0, kSeed);
  const control::SweepReport serial =
      control::run_control_sweep(entries, det_config, nullptr);
  const control::SweepReport threaded =
      control::run_control_sweep(entries, det_config, &pool);
  const bool log_match = serial.decision_log == threaded.decision_log &&
                         serial.decision_digest == threaded.decision_digest;
  const bool checksum_match = serial.checksum == threaded.checksum;
  bench::note(std::string("decision log (") +
              std::to_string(serial.ticks) + " ticks) " +
              (log_match ? "byte-identical" : "MISMATCH") +
              ", response checksum " +
              (checksum_match ? "match" : "MISMATCH"));
  bench::note("decision digest " + serve::hex64(serial.decision_digest));
  serve::print_tally(std::cout, serial);

  // ---- machine-readable report --------------------------------------------
  std::ofstream out("BENCH_control.json");
  out << "{\n";
  out << "  \"frontier\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const control::SweepReport& r = c.report;
    out << "    {\"policy\": \"" << control::to_string(c.policy)
        << "\", \"multiplier\": " << c.multiplier
        << ", \"offered_qps\": " << r.offered_qps
        << ", \"issued\": " << r.issued
        << ", \"shed_fraction\": " << shed(r)
        << ", \"denied_fraction\": " << denied(r)
        << ", \"stale_fraction\": " << r.share(r.stale)
        << ", \"brownout\": " << r.brownout
        << ", \"unavailable\": " << r.unavailable
        << ", \"modeled_p50_ms\": " << r.modeled_p50_ms
        << ", \"modeled_p99_ms\": " << r.modeled_p99_ms
        << ", \"slo_good_fraction\": " << r.slo_good_fraction
        << ", \"slo_fired\": " << (r.slo_fired ? "true" : "false")
        << ", \"max_level\": " << r.max_level
        << ", \"peak_shards\": " << r.peak_shards
        << ", \"min_channel_capacity\": " << r.min_channel_capacity
        << ", \"first_ladder_ms\": " << r.first_ladder_ms
        << ", \"first_shed_ms\": " << r.first_shed_ms
        << ", \"ladder_engaged_before_shed\": "
        << (r.ladder_engaged_before_shed ? "true" : "false")
        << ", \"ticks\": " << r.ticks << ", \"checksum\": \""
        << serve::hex64(r.checksum) << "\", \"decision_digest\": \""
        << serve::hex64(r.decision_digest) << "\"}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"comparison\": {"
      << "\"static_shed_2x\": " << shed(static_2x)
      << ", \"reactive_shed_2x\": " << shed(reactive_2x)
      << ", \"improved_2x\": " << (improved_2x ? "true" : "false")
      << ", \"static_shed_4x\": " << shed(static_4x)
      << ", \"reactive_shed_4x\": " << shed(reactive_4x)
      << ", \"predictive_shed_4x\": " << shed(predictive_4x)
      << ", \"improved_4x\": " << (improved_4x ? "true" : "false")
      << ", \"static_slo_good_4x\": " << static_4x.slo_good_fraction
      << ", \"reactive_slo_good_4x\": " << reactive_4x.slo_good_fraction
      << "},\n";
  out << "  \"ladder\": {"
      << "\"first_ladder_ms\": " << reactive_4x.first_ladder_ms
      << ", \"first_shed_ms\": " << reactive_4x.first_shed_ms
      << ", \"engaged_before_shed\": " << (ladder_first ? "true" : "false")
      << ", \"max_level\": " << reactive_4x.max_level << "},\n";
  out << "  \"determinism\": {\"threads_wide\": " << wide
      << ", \"log_match\": " << (log_match ? "true" : "false")
      << ", \"checksum_match\": " << (checksum_match ? "true" : "false")
      << ", \"decision_digest\": \"" << serve::hex64(serial.decision_digest)
      << "\", \"checksum\": \"" << serve::hex64(serial.checksum)
      << "\", \"ticks\": " << serial.ticks
      << ", \"serial_ms\": " << serial.wall_ms
      << ", \"wide_ms\": " << threaded.wall_ms
      << "}\n";
  out << "}\n";
  bench::note("wrote BENCH_control.json");

  return improved_4x && ladder_first && log_match && checksum_match ? 0 : 1;
}
