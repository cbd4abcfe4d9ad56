// perfbench: the repository benchmark. One process runs one workload from
// generated inputs, measures it for a fixed wall time, checks its outputs
// and prints a JSON result line (see perfbench/README.md).
//
//   perfbench --workload batch-ocr|serve-read|stream-serve --seed N
//             --seconds S --trace 0|1 [--tiny] [--corrupt-output]
//             [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-drives the same
// computation through the program's public per-layer functions under
// benchmark-owned spans and reports the per-layer metrics. --tiny shrinks
// every input to a seconds-long smoke size. --corrupt-output flips one bit
// of the checked output fingerprint, which must mark every operation failed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "load.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "serve/snapshot_io.hpp"
#include "stream/pipeline.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "tero/channel.hpp"
#include "tero/pipeline.hpp"
#include "trace.hpp"
#include "tsdb/store.hpp"
#include "util/thread_pool.hpp"

using namespace tero;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half of a sample: robust like the median, but not
/// stuck on the bucket values of a quantized input.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// Nearest-rank quantile of a sample, q in [0, 1].
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_output = false;
  std::string trace_dir = ".bench_build/traces";
};

/// Input sizes. The full sizes follow the shapes the workloads were chosen
/// for; --tiny keeps every code path at smoke size.
struct Sizes {
  std::size_t batch_streamers, batch_days, batch_thumbnails;
  std::size_t read_streamers, read_days, read_thumbnails, tsdb_days;
  std::size_t query_list;
  std::size_t stream_streamers, stream_days, stream_thumbnails;
};

Sizes sizes_for(bool tiny) {
  if (tiny) return {12, 1, 200, 150, 1, 2000, 4, 1 << 12, 60, 2, 1500};
  return {240, 3, 2400, 1500, 2, 40000, 14, 1 << 16, 480, 5, 12000};
}

/// Pipeline threads for batch-ocr and serve-read: the machine, at most 4.
std::size_t pipeline_threads() {
  return std::min<std::size_t>(4, util::ThreadPool::resolve(0));
}

constexpr std::size_t kStreamThreads = 2;
/// serve-read's closed-loop clients: half of the 4-core box. With one
/// client per core, a client descheduled while it holds one of the
/// service's locks stalls all the others, and throughput on a shared
/// machine turned bimodal (spread 0.41 over six runs, against 0.12 with two
/// clients). The 4-client contention is measured in the traced run
/// (serve.query_ns_4c).
constexpr std::size_t kReadClients = 2;
constexpr std::size_t kReadKeys = 256;
constexpr int kSetupRepeats = 3;
constexpr int kMinRepeats = 3;

// ---- report -----------------------------------------------------------------

/// Every per-layer metric, in report order, with its unit. A workload that
/// does not run a layer reports it as 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"location.busy_ms", "ms"},          {"extract.busy_ms", "ms"},
      {"extract.us_per_visible", "us"},    {"extract.ok_ratio", "ratio"},
      {"analysis.busy_ms", "ms"},          {"analysis.retained_ratio", "ratio"},
      {"aggregate.busy_ms", "ms"},         {"publish.busy_ms", "ms"},
      {"pipeline.residual_ms", "ms"},      {"pool.steals", "count"},
      {"pool.parks", "count"},             {"serve.admit_ns", "ns"},
      {"serve.acquire_ns", "ns"},          {"serve.route_ns", "ns"},
      {"serve.compute_ns", "ns"},          {"serve.query_ns_1c", "ns"},
      {"serve.query_ns_4c", "ns"},         {"serve.contention_ns", "ns"},
      {"serve.cache_hit_ratio", "ratio"},  {"tsdb.range_us", "us"},
      {"tsdb.appends", "count"},           {"tsdb.segments", "count"},
      {"stream.to_extract.stalls", "count"},
      {"stream.to_extract.max_depth", "count"},
      {"stream.to_clean.stalls", "count"},
      {"stream.to_clean.max_depth", "count"},
      {"stream.to_sink.stalls", "count"},
      {"stream.to_sink.max_depth", "count"},
      {"stream.publish_p50_ms", "ms"},     {"stream.publish_p99_ms", "ms"},
      {"stream.epochs", "count"},          {"stream.clean_us_per_event", "us"},
      {"stream.late_events", "count"},     {"stream.windows_closed", "count"},
      {"serve.epochs_seen", "count"},      {"reader.kqps", "kqps"},
      {"reader.p99_us", "us"},             {"trace_overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  return kList;
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (the JSON result under --trace 0).
  std::vector<std::tuple<std::string, double, std::string>> end_to_end;
  /// Per-layer metrics (the JSON result under --trace 1).
  std::map<std::string, double> layers;
  /// The workload's own metric names (thumbnails_per_s, query_kqps, ...),
  /// printed for people beside the JSON result.
  std::vector<std::tuple<std::string, double, std::string>> named;
  std::vector<std::pair<std::string, std::string>> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.emplace_back(name, value, unit);
  }
  void label(const std::string& name, double value, const std::string& unit) {
    named.emplace_back(name, value, unit);
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      note("check_failed", what);
    }
  }
};

std::string hex(std::uint64_t v) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

void print_report(const Options& options, Report& report) {
  if (!report.correct) report.failed = report.attempted;
  const double fail_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  report.label("fail_frac", fail_frac, "ratio");
  for (const auto& [key, value] : report.notes) {
    std::cout << "note " << key << " " << value << "\n";
  }
  for (const auto& [label, value, unit] : report.named) {
    std::cout << "metric " << label << " " << json_number(value) << " " << unit
              << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const auto& [name, unit] : layer_metrics()) {
      const auto it = report.layers.find(name);
      emit(name, it != report.layers.end() ? it->second : 0.0, unit);
    }
  } else {
    for (const auto& [name, value, unit] : report.end_to_end) {
      emit(name, value, unit);
    }
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// ---- inputs -----------------------------------------------------------------

struct Inputs {
  std::unique_ptr<synth::World> world;
  std::vector<synth::TrueStream> streams;
};

/// A seeded world whose streamers are all locatable, and a seeded random
/// subset of its sessions (kept in generation order) holding `budget`
/// thumbnails, so every seed gives a workload of the same size whose game
/// and streamer mix averages over the whole world.
Inputs make_inputs(std::uint64_t seed, std::size_t streamers, std::size_t days,
                   std::size_t budget) {
  synth::WorldConfig config;
  config.seed = util::mix_seed(seed, 0x3011d);
  config.num_streamers = streamers;
  config.p_twitter = 1.0;
  config.p_twitter_backlink = 1.0;
  config.p_twitter_location = 1.0;
  config.p_false_location = 0.0;
  Inputs in;
  in.world = std::make_unique<synth::World>(config);
  synth::BehaviorConfig behavior;
  behavior.days = static_cast<int>(days);
  synth::SessionGenerator generator(*in.world, behavior,
                                    util::mix_seed(seed, 0x5e55));
  auto streams = generator.generate();
  std::vector<std::size_t> order(streams.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(util::mix_seed(seed, 0x5e1ec7));
  rng.shuffle(order);
  std::size_t kept = 0, thumbnails = 0;
  while (kept < order.size() && thumbnails < budget) {
    thumbnails += streams[order[kept++]].points.size();
  }
  order.resize(kept);
  std::sort(order.begin(), order.end());
  for (const std::size_t i : order) in.streams.push_back(std::move(streams[i]));
  return in;
}

core::TeroConfig tero_config(std::uint64_t seed, bool full_ocr,
                             std::size_t threads) {
  core::TeroConfig config;
  config.seed = util::mix_seed(seed, 0x7e20);
  config.use_full_ocr = full_ocr;
  // The noise channel is cheap per thumbnail, so its workloads see every
  // latency overlay; full OCR keeps the paper's visibility rate.
  if (!full_ocr) config.p_latency_visible = 1.0;
  config.threads = threads;
  return config;
}

/// Run `build` kSetupRepeats times and return the median wall seconds; the
/// last build's state is what the workload then uses.
double timed_setup(const std::function<void()>& build) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    build();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

std::string snapshot_bytes(const std::vector<serve::SnapshotEntry>& entries) {
  std::ostringstream out;
  serve::save_snapshot(serve::Snapshot(1, entries), out);
  return out.str();
}

// ---- pipeline re-drive --------------------------------------------------------

/// Per-re-drive layer figures (one Pipeline::run's worth of work).
struct StageFigures {
  std::map<std::string, double> self_ms;  ///< folded self time by span name
  double stage_sum_ms = 0.0;  ///< the stage spans that tile Pipeline::run
  double wall_ms = 0.0;
  util::ThreadPool::Stats pool;
};

/// Pipeline::run re-driven stage by stage through the public functions it
/// is built from, each call under a benchmark span. Must produce the same
/// dataset as Pipeline::run with the same config (checked by digest).
core::Dataset redrive(const synth::World& world,
                      std::span<const synth::TrueStream> streams,
                      const core::TeroConfig& config,
                      const core::ExtractionChannel& channel,
                      util::ThreadPool* pool, serve::QueryService& service,
                      Tracer* tracer) {
  const Tracer::Span run_span(tracer, "pipeline.run");
  core::Dataset dataset;
  const store::Pseudonymizer pseudonymizer =
      core::make_pseudonymizer(config.seed);

  core::LocatedWorld located;
  {
    const Tracer::Span span(tracer, "stage.location", run_span.id());
    located = core::locate_streamers(world);
  }
  dataset.funnel.streamers_total = world.streamers().size();
  dataset.funnel.streamers_located = located.streamers_located;
  dataset.funnel.quarantined = core::count_quarantined_streamers(
      located, streams, nullptr, config.extraction_retry);

  struct Extracted {
    analysis::Stream stream;
    std::size_t thumbnails = 0, visible = 0, ok = 0;
  };
  std::vector<Extracted> extracted;
  {
    const Tracer::Span stage(tracer, "stage.extraction", run_span.id());
    extracted = util::parallel_map(pool, streams.size(), 1, [&](std::size_t i) {
      const Tracer::Span task(tracer, "extract.task", stage.id());
      Extracted out;
      const auto& true_stream = streams[i];
      if (!located.located[true_stream.streamer_index].has_value()) return out;
      const std::uint64_t stream_seed =
          core::extraction_stream_seed(config.seed, i);
      const auto& spec = ocr::ui_spec_for(true_stream.game);
      out.stream.streamer = pseudonymizer.pseudonym(
          world.streamers()[true_stream.streamer_index].id);
      out.stream.game = true_stream.game;
      for (std::size_t p = 0; p < true_stream.points.size(); ++p) {
        ++out.thumbnails;
        auto result = core::extract_thumbnail(channel, spec,
                                              true_stream.points[p],
                                              config.p_latency_visible,
                                              stream_seed, p);
        if (!result.visible) continue;
        ++out.visible;
        if (result.measurement.has_value()) {
          out.stream.points.push_back(*result.measurement);
          ++out.ok;
        }
      }
      return out;
    });
  }

  std::map<std::tuple<std::size_t, std::string, int>,
           std::vector<analysis::Stream>>
      grouped;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    dataset.funnel.thumbnails += extracted[i].thumbnails;
    dataset.funnel.visible += extracted[i].visible;
    dataset.funnel.ocr_ok += extracted[i].ok;
    if (extracted[i].stream.points.empty()) continue;
    grouped[{streams[i].streamer_index, streams[i].game,
             core::stream_epoch(world, located, streams[i])}]
        .push_back(std::move(extracted[i].stream));
  }
  std::vector<decltype(grouped)::iterator> groups;
  for (auto it = grouped.begin(); it != grouped.end(); ++it) {
    groups.push_back(it);
  }

  std::vector<std::optional<core::StreamerGameEntry>> analyzed;
  {
    const Tracer::Span stage(tracer, "stage.analysis", run_span.id());
    analyzed = util::parallel_map(
        pool, groups.size(), 1,
        [&](std::size_t i) -> std::optional<core::StreamerGameEntry> {
          const Tracer::Span task(tracer, "analysis.task", stage.id());
          const auto& [streamer_index, game, epoch] = groups[i]->first;
          return core::analyze_streamer_group(
              world, located, pseudonymizer, streamer_index, game, epoch,
              std::move(groups[i]->second), config.analysis);
        });
  }
  for (auto& entry : analyzed) {
    if (!entry.has_value()) continue;
    dataset.funnel.retained += entry->clean.points_retained;
    dataset.entries.push_back(std::move(*entry));
  }

  {
    const Tracer::Span stage(tracer, "stage.aggregation", run_span.id());
    dataset.aggregates = core::aggregate_entries(
        dataset.entries, config.analysis, config.aggregate_granularity,
        config.reject_location_outliers, pool);
  }
  for (const auto& aggregate : dataset.aggregates) {
    dataset.funnel.clustered += aggregate.distribution.size();
  }

  {
    const Tracer::Span stage(tracer, "stage.publish", run_span.id());
    service.publish(serve::entries_from(dataset));
  }
  return dataset;
}

/// Re-drive until `seconds` pass (at least once), each time under a fresh
/// tracer; checks every digest against `expected_digest` and returns the
/// per-re-drive figures. The last tracer is handed back so later probes can
/// add their spans to it.
std::vector<StageFigures> traced_redrives(
    const synth::World& world, std::span<const synth::TrueStream> streams,
    const core::TeroConfig& config, std::size_t threads, double seconds,
    std::uint64_t expected_digest, Report& report,
    std::unique_ptr<Tracer>& last_tracer, core::Funnel* funnel_out) {
  const auto channel = config.use_full_ocr
                           ? core::make_ocr_channel(config.thumbnails)
                           : core::make_noise_channel(config.noise);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  serve::QueryService sink{serve::ServeConfig{}};
  std::vector<StageFigures> figures;
  const auto deadline = after(Clock::now(), seconds);
  do {
    auto tracer = std::make_unique<Tracer>();
    const auto before =
        pool != nullptr ? pool->stats() : util::ThreadPool::Stats{};
    const auto start = Clock::now();
    const core::Dataset dataset = redrive(world, streams, config, *channel,
                                          pool.get(), sink, tracer.get());
    StageFigures f;
    f.wall_ms = seconds_since(start) * 1e3;
    const auto now =
        pool != nullptr ? pool->stats() : util::ThreadPool::Stats{};
    f.pool.steals = now.steals - before.steals;
    f.pool.parks = now.parks - before.parks;
    f.self_ms = tracer->self_ms();
    auto total_ms = tracer->total_ms();
    for (const char* stage : {"stage.location", "stage.extraction",
                              "stage.analysis", "stage.aggregation",
                              "stage.publish"}) {
      f.stage_sum_ms += total_ms[stage];
    }
    figures.push_back(std::move(f));
    report.check(core::dataset_digest(dataset) == expected_digest,
                 "re-driven dataset digest differs from Pipeline::run");
    if (funnel_out != nullptr) *funnel_out = dataset.funnel;
    last_tracer = std::move(tracer);
  } while (Clock::now() < deadline);
  return figures;
}

/// Fold re-drive figures into the pipeline per-layer metrics.
void report_stage_layers(const std::vector<StageFigures>& figures,
                         const core::Funnel& funnel, double run_wall_ms,
                         Report& report) {
  const auto med = [&](const std::function<double(const StageFigures&)>& get) {
    std::vector<double> v;
    for (const auto& f : figures) v.push_back(get(f));
    return median(v);
  };
  const auto span_ms = [&](const char* name) {
    return med([name](const StageFigures& f) {
      const auto it = f.self_ms.find(name);
      return it != f.self_ms.end() ? it->second : 0.0;
    });
  };
  auto& l = report.layers;
  l["location.busy_ms"] = span_ms("stage.location");
  l["extract.busy_ms"] = span_ms("extract.task");
  l["extract.us_per_visible"] =
      funnel.visible > 0 ? l["extract.busy_ms"] * 1e3 /
                               static_cast<double>(funnel.visible)
                         : 0.0;
  l["extract.ok_ratio"] = funnel.visible > 0
                              ? static_cast<double>(funnel.ocr_ok) /
                                    static_cast<double>(funnel.visible)
                              : 0.0;
  l["analysis.busy_ms"] = span_ms("analysis.task");
  l["analysis.retained_ratio"] =
      funnel.ocr_ok > 0 ? static_cast<double>(funnel.retained) /
                              static_cast<double>(funnel.ocr_ok)
                        : 0.0;
  l["aggregate.busy_ms"] = span_ms("stage.aggregation");
  l["publish.busy_ms"] = span_ms("stage.publish");
  const double stage_sum =
      med([](const StageFigures& f) { return f.stage_sum_ms; });
  l["pipeline.residual_ms"] = run_wall_ms - stage_sum;
  l["pool.steals"] =
      med([](const StageFigures& f) { return double(f.pool.steals); });
  l["pool.parks"] =
      med([](const StageFigures& f) { return double(f.pool.parks); });
  report.note("redrives", std::to_string(figures.size()));
  std::string folded;
  for (const auto& [name, ms] : figures.back().self_ms) {
    folded += name + "=" + json_number(ms) + " ";
  }
  report.note("self_ms", folded);
}

// ---- serve probes -------------------------------------------------------------

/// Mean ns per call of `body` over `n` calls, median of 5 timed passes.
double probe_ns(std::size_t n, const std::function<void()>& body) {
  std::vector<double> passes;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) body();
    passes.push_back(seconds_since(start) * 1e9 / static_cast<double>(n));
  }
  return median(passes);
}

/// Times the read path's public calls one at a time on a sample of the
/// query list, then QueryService::query with 1 and with 4 concurrent
/// clients over the same sample.
void serve_probes(serve::QueryService& service,
                  std::span<const serve::Query> sample,
                  const tsdb::TimeSeriesStore* store, Report& report,
                  Tracer* tracer) {
  auto& l = report.layers;
  std::uint64_t sink = 0;
  std::size_t cursor = 0;
  const auto next = [&]() -> const serve::Query& {
    const serve::Query& q = sample[cursor];
    cursor = (cursor + 1) % sample.size();
    return q;
  };
  {
    const Tracer::Span span(tracer, "probe.admit");
    l["serve.admit_ns"] = probe_ns(sample.size(), [&] {
      sink += service.try_admit() ? 1 : 0;
    });
  }
  {
    const Tracer::Span span(tracer, "probe.acquire");
    l["serve.acquire_ns"] = probe_ns(sample.size(), [&] {
      sink += service.snapshot() != nullptr ? 1 : 0;
    });
  }
  {
    const Tracer::Span span(tracer, "probe.route");
    l["serve.route_ns"] =
        probe_ns(sample.size(), [&] { sink += service.shard_for(next()); });
  }
  std::vector<serve::Query> point;
  std::vector<tsdb::RangeQuery> ranges;
  for (const auto& q : sample) {
    if (!serve::is_range_kind(q.kind)) {
      point.push_back(q);
      continue;
    }
    tsdb::RangeQuery r;
    r.key = serve::entry_key(q.location, q.game);
    r.t0_ms = q.t0_ms;
    r.t1_ms = q.t1_ms;
    r.window_ms = q.window_ms;
    r.pct = q.param;
    r.agg = q.kind == serve::QueryKind::kRangeCount  ? tsdb::RangeAgg::kCount
            : q.kind == serve::QueryKind::kRangeMean ? tsdb::RangeAgg::kMean
                                                     : tsdb::RangeAgg::kPercentile;
    ranges.push_back(std::move(r));
  }
  const serve::SnapshotPtr snapshot = service.snapshot();
  if (!point.empty() && snapshot != nullptr) {
    const Tracer::Span span(tracer, "probe.compute");
    std::size_t i = 0;
    l["serve.compute_ns"] = probe_ns(point.size(), [&] {
      sink += serve::answer(point[i], *snapshot).status ==
              serve::QueryStatus::kOk;
      i = (i + 1) % point.size();
    });
  }
  if (!ranges.empty() && store != nullptr) {
    const Tracer::Span span(tracer, "probe.tsdb_range");
    std::size_t i = 0;
    l["tsdb.range_us"] = probe_ns(ranges.size(), [&] {
      sink += store->range(ranges[i]).size();
      i = (i + 1) % ranges.size();
    }) / 1e3;
  }

  // Closed-loop QueryService::query, 1 client then 4: the difference is time
  // spent waiting on state the clients share.
  const auto per_query_ns = [&](std::size_t clients) {
    std::vector<double> ns(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::uint64_t local = 0;
        const std::size_t n = sample.size() * 4;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
          local += service.query(sample[(i + c * 97) % sample.size()])
                       .status == serve::QueryStatus::kOk;
        }
        ns[c] = seconds_since(start) * 1e9 / static_cast<double>(n);
        if (local == 0) ns[c] = -ns[c];  // every query failed: flag it
      });
    }
    for (auto& t : threads) t.join();
    double sum = 0;
    for (double v : ns) sum += v;
    return sum / static_cast<double>(clients);
  };
  std::vector<double> one, four;
  {
    const Tracer::Span span(tracer, "probe.query_contention");
    for (int pass = 0; pass < 3; ++pass) {
      one.push_back(per_query_ns(1));
      four.push_back(per_query_ns(4));
    }
  }
  l["serve.query_ns_1c"] = median(one);
  l["serve.query_ns_4c"] = median(four);
  l["serve.contention_ns"] = median(four) - median(one);
  if (sink == 0) report.note("probe_sink", "0");
}

double hit_ratio(const serve::QueryService& service) {
  const double hits = static_cast<double>(service.cache_hits());
  const double misses = static_cast<double>(service.cache_misses());
  return hits + misses > 0 ? hits / (hits + misses) : 0.0;
}

void write_trace(const Options& options, const Tracer* tracer, Report& report) {
  if (tracer == nullptr) return;
  report.layers["trace.spans"] = static_cast<double>(tracer->span_count());
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  const std::string path = options.trace_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  tracer->write_chrome_json(path);
  report.note("trace_json", path);
}

// ---- batch-ocr ----------------------------------------------------------------

void run_batch_ocr(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options.tiny);
  const std::size_t threads = pipeline_threads();
  const core::TeroConfig config = tero_config(options.seed, true, threads);

  // Declaration order matters: the pipeline's publish hook refers to the
  // service, so the service is built first and destroyed last.
  Inputs in;
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<core::Pipeline> pipeline;
  const double setup_s = timed_setup([&] {
    pipeline.reset();
    in = make_inputs(options.seed, sizes.batch_streamers, sizes.batch_days,
                     sizes.batch_thumbnails);
    service = std::make_unique<serve::QueryService>(serve::ServeConfig{});
    core::TeroConfig c = config;
    c.on_dataset = serve::publish_hook(*service);
    pipeline = std::make_unique<core::Pipeline>(std::move(c));
  });
  report.note("input_fingerprint",
              hex(perfbench::input_fingerprint(*in.world, in.streams)));
  report.note("pipeline_threads", std::to_string(threads));

  // Warm-up run: lazy one-time set-up (glyph banks, arenas) finishes here;
  // its digest is the reference every timed repeat must reproduce.
  const core::Dataset reference = pipeline->run(*in.world, in.streams);
  const std::uint64_t digest = core::dataset_digest(reference);
  const std::uint64_t flip = options.corrupt_output ? 1 : 0;
  report.note("dataset_digest", hex(digest));

  const double timed_seconds = options.trace ? options.seconds / 2
                                             : options.seconds;
  std::vector<double> walls_ms, rates;
  std::uint64_t thumbnails = 0;
  const auto deadline = after(Clock::now(), timed_seconds);
  while (Clock::now() < deadline ||
         walls_ms.size() < static_cast<std::size_t>(kMinRepeats)) {
    const auto start = Clock::now();
    const core::Dataset dataset = pipeline->run(*in.world, in.streams);
    const double wall_s = seconds_since(start);
    walls_ms.push_back(wall_s * 1e3);
    rates.push_back(static_cast<double>(dataset.funnel.thumbnails) / wall_s);
    thumbnails += dataset.funnel.thumbnails;
    report.check((core::dataset_digest(dataset) ^ flip) == digest,
                 "batch dataset digest changed between repeats");
  }
  report.attempted = thumbnails;
  report.check(service->epoch() == walls_ms.size() + 1,
               "publish_hook did not publish once per run");
  report.note("repeats", std::to_string(walls_ms.size()));
  report.note("thumbnails_per_run", std::to_string(reference.funnel.thumbnails));

  // The re-drive check holds in every run; the traced run also folds it
  // into per-layer figures.
  std::unique_ptr<Tracer> tracer;
  core::Funnel funnel;
  const auto figures = traced_redrives(
      *in.world, in.streams, config, threads,
      options.trace ? options.seconds / 2 : 0.0, digest, report, tracer,
      &funnel);
  if (!options.trace) tracer.reset();

  const double p50_ms = median(walls_ms);
  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("throughput_per_s", median(rates), "1/s");
  report.e2e("latency_p50_ms", p50_ms, "ms");
  report.e2e("latency_tail_ms", quantile(walls_ms, 0.9), "ms");
  report.label("thumbnails_per_s", median(rates), "1/s");
  report.label("batch_wall_p50_ms", p50_ms, "ms");
  report.label("setup_s", setup_s, "s");
  report.label("peak_rss_mb", peak_rss_mb(), "MB");

  if (options.trace) {
    report_stage_layers(figures, funnel, p50_ms, report);
    std::vector<double> traced_walls;
    for (const auto& f : figures) traced_walls.push_back(f.wall_ms);
    report.layers["trace_overhead_frac"] =
        (median(traced_walls) - p50_ms) / p50_ms;
    const auto entries = service->snapshot()->entries();
    perfbench::MixShares shares;
    shares.percentile = 0.45;
    shares.ecdf = 0.2;
    shares.mean = 0.15;
    shares.count = 0.1;
    shares.topk = 0.1;
    if (!entries.empty()) {
      const auto sample = perfbench::make_query_mix(
          entries, options.seed, 4096, shares, perfbench::kDayMs);
      serve_probes(*service, sample, nullptr, report, tracer.get());
    }
    report.layers["serve.cache_hit_ratio"] = hit_ratio(*service);
    report.layers["serve.epochs_seen"] = static_cast<double>(service->epoch());
    write_trace(options, tracer.get(), report);
  }
}

// ---- serve-read ---------------------------------------------------------------

/// One closed-loop client: walks the query list from its own start index,
/// sends the next query only when the previous one returned.
struct Client {
  std::size_t start = 0;
  std::uint64_t done = 0;
  std::uint64_t fold = 0;
  std::uint64_t not_ok = 0;
  /// Every kLatencyStride-th query's latency, in a ring allocated and
  /// touched before timing starts so recording never page-faults.
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t recorded = 0;

  [[nodiscard]] std::vector<std::uint32_t> samples() const {
    return {latency_ns.begin(),
            latency_ns.begin() + static_cast<std::ptrdiff_t>(std::min<
                std::uint64_t>(recorded, latency_ns.size()))};
  }
};
constexpr std::uint64_t kLatencyStride = 8;
constexpr std::size_t kLatencyRing = std::size_t{1} << 20;
constexpr std::uint64_t kTraceStride = 64;

/// Salt that makes every answered query its own term in the XOR fold, so
/// two wrong answers to one query cannot cancel.
std::uint64_t occurrence(std::size_t client, std::uint64_t k) {
  return (static_cast<std::uint64_t>(client) << 48) | k;
}

/// Send queries until `deadline`; the latency ring records only when
/// `record` is set.
void client_loop(serve::QueryService& service,
                 std::span<const serve::Query> list, std::size_t client_id,
                 Client& client, Clock::time_point deadline, bool record,
                 Tracer* tracer) {
  const std::size_t n = list.size();
  while (true) {
    const std::size_t index = (client.start + client.done) % n;
    const auto t0 = Clock::now();
    serve::QueryResponse response;
    if (tracer != nullptr && client.done % kTraceStride == 0) {
      const Tracer::Span span(tracer, "serve.query");
      response = service.query(list[index]);
    } else {
      response = service.query(list[index]);
    }
    const auto t1 = Clock::now();
    if (record && client.done % kLatencyStride == 0) {
      client.latency_ns[client.recorded++ % client.latency_ns.size()] =
          static_cast<std::uint32_t>(std::min<std::int64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count(),
              UINT32_MAX));
    }
    if (response.status != serve::QueryStatus::kOk) ++client.not_ok;
    client.fold ^= util::mix_seed(occurrence(client_id, client.done),
                                  serve::hash_response(index, response));
    ++client.done;
    if (t1 >= deadline) return;
  }
}

/// All clients run concurrently on their own threads for `warmup_s`, then
/// for `rounds` rounds of `round_s` that share absolute boundaries, so no
/// thread is started or joined while timing. Returns each round's
/// queries/s over all clients.
std::vector<double> closed_loop(serve::QueryService& service,
                                std::span<const serve::Query> list,
                                std::vector<Client>& clients, double warmup_s,
                                int rounds, double round_s, bool record,
                                Tracer* tracer) {
  std::vector<std::vector<std::uint64_t>> marks(
      clients.size(), std::vector<std::uint64_t>(rounds + 1));
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      client_loop(service, list, c, clients[c], after(start, warmup_s), false,
                  tracer);
      marks[c][0] = clients[c].done;
      for (int r = 0; r < rounds; ++r) {
        client_loop(service, list, c, clients[c],
                    after(start, warmup_s + (r + 1) * round_s), record,
                    tracer);
        marks[c][r + 1] = clients[c].done;
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<double> qps;
  for (int r = 0; r < rounds; ++r) {
    std::uint64_t queries = 0;
    for (const auto& m : marks) queries += m[r + 1] - m[r];
    qps.push_back(static_cast<double>(queries) / round_s);
  }
  return qps;
}

/// The serve-read state: one published snapshot from a noise-channel
/// pipeline run and a pre-filled in-memory time-series store.
struct ReadState {
  Inputs in;
  std::unique_ptr<tsdb::TimeSeriesStore> store;
  std::unique_ptr<serve::QueryService> service;
  core::Dataset dataset;
  std::vector<serve::Query> queries;
};

std::unique_ptr<ReadState> build_read_state(const Options& options,
                                            const Sizes& sizes,
                                            const core::TeroConfig& config) {
  auto st = std::make_unique<ReadState>();
  st->in = make_inputs(options.seed, sizes.read_streamers, sizes.read_days,
                       sizes.read_thumbnails);
  st->store = std::make_unique<tsdb::TimeSeriesStore>(tsdb::TsdbConfig{});
  serve::ServeConfig serve_config;
  serve_config.tsdb = st->store.get();
  st->service = std::make_unique<serve::QueryService>(serve_config);
  core::TeroConfig c = config;
  c.on_dataset = serve::publish_hook(*st->service);
  core::Pipeline pipeline(std::move(c));
  st->dataset = pipeline.run(*st->in.world, st->in.streams);

  // Hourly history for every key over the tsdb horizon, values drawn from
  // the key's own retained samples.
  const auto entries = st->service->snapshot()->entries();
  const auto hours = static_cast<std::int64_t>(sizes.tsdb_days * 24);
  for (std::int64_t h = 0; h < hours; ++h) {
    const std::int64_t t_ms = h * perfbench::kHourMs;
    st->store->advance_to(t_ms);
    for (std::size_t k = 0; k < entries.size(); ++k) {
      const auto& values = entries[k].sorted_values;
      if (values.empty()) continue;
      util::Rng rng = util::Rng::indexed(util::mix_seed(options.seed, k),
                                         static_cast<std::uint64_t>(h));
      st->store->append(entries[k].key, t_ms,
                        values[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(values.size()) - 1))]);
    }
  }
  st->store->advance_to(hours * perfbench::kHourMs);

  // A fixed number of keys (the best-sampled ones, in key order) so the
  // query mix has the same shape for every seed.
  std::vector<serve::SnapshotEntry> with_samples(entries.begin(),
                                                 entries.end());
  std::stable_sort(with_samples.begin(), with_samples.end(),
                   [](const auto& a, const auto& b) {
                     return a.samples > b.samples;
                   });
  with_samples.resize(std::min<std::size_t>(with_samples.size(), kReadKeys));
  std::erase_if(with_samples, [](const auto& e) { return e.samples == 0; });
  std::sort(with_samples.begin(), with_samples.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  perfbench::MixShares shares;
  shares.percentile = 0.35;
  shares.ecdf = 0.15;
  shares.mean = 0.15;
  shares.count = 0.1;
  shares.topk = 0.1;
  shares.range = 0.15;
  st->queries = perfbench::make_query_mix(with_samples, options.seed,
                                          sizes.query_list, shares,
                                          hours * perfbench::kHourMs);
  return st;
}

void run_serve_read(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options.tiny);
  const std::size_t threads = pipeline_threads();
  const core::TeroConfig config = tero_config(options.seed, false, threads);
  std::unique_ptr<ReadState> st;
  const double setup_s = timed_setup([&] {
    st.reset();
    st = build_read_state(options, sizes, config);
  });
  std::span<const serve::Query> list = st->queries;
  report.note("input_fingerprint",
              hex(perfbench::input_fingerprint(*st->in.world, st->in.streams)));
  report.note("query_fingerprint", hex(perfbench::query_fingerprint(list)));
  report.note("snapshot_keys", std::to_string(st->service->snapshot()->size()));
  report.note("queries_in_list", std::to_string(list.size()));

  // Reference: a serial pass through an uncached service over the same
  // snapshot and store.
  serve::ServeConfig ref_config;
  ref_config.tsdb = st->store.get();
  ref_config.cache_capacity = 0;
  serve::QueryService reference(ref_config);
  reference.publish(st->service->snapshot());
  std::vector<std::uint64_t> ref_hash(list.size());
  std::size_t ref_not_ok = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto response = reference.query(list[i]);
    if (response.status != serve::QueryStatus::kOk) ++ref_not_ok;
    ref_hash[i] = serve::hash_response(i, response);
  }
  report.check(ref_not_ok == 0, "the uncached serial pass answered " +
                                    std::to_string(ref_not_ok) +
                                    " queries not OK");

  std::vector<Client> clients(kReadClients);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c].start = c * list.size() / clients.size();
    clients[c].latency_ns.assign(kLatencyRing, 1);
  }
  // The warm-up fills the shard caches; its answers are checked like the
  // rest.
  const double timed_seconds = options.trace ? options.seconds / 2
                                             : options.seconds;
  constexpr int kRounds = 10;
  const std::vector<double> round_qps =
      closed_loop(*st->service, list, clients, std::min(4.0, timed_seconds / 5),
                  kRounds, timed_seconds / kRounds, true, nullptr);
  const double qps = median(round_qps);
  {
    std::string rounds;
    for (double q : round_qps) rounds += json_number(q / 1e3) + " ";
    report.note("round_kqps", rounds);
  }
  std::vector<std::uint32_t> latency_ns;
  for (const auto& c : clients) {
    const auto samples = c.samples();
    latency_ns.insert(latency_ns.end(), samples.begin(), samples.end());
  }
  const double p50_us = quantile(latency_ns, 0.5) / 1e3;
  const double p99_us = quantile(latency_ns, 0.99) / 1e3;
  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.e2e("throughput_per_s", qps, "1/s");
  report.e2e("latency_p50_ms", p50_us / 1e3, "ms");
  report.e2e("latency_tail_ms", p99_us / 1e3, "ms");
  report.label("query_kqps", qps / 1e3, "kqps");
  report.label("query_p50_us", p50_us, "us");
  report.label("query_p99_us", p99_us, "us");
  report.label("query_latency_samples", static_cast<double>(latency_ns.size()),
              "count");
  report.label("setup_s", setup_s, "s");
  report.label("peak_rss_mb", peak_rss_mb(), "MB");
  report.layers["serve.cache_hit_ratio"] = hit_ratio(*st->service);
  report.layers["reader.kqps"] = qps / 1e3;
  report.layers["reader.p99_us"] = p99_us;
  report.layers["serve.epochs_seen"] = 1;

  std::unique_ptr<Tracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<Tracer>();
    const std::vector<double> traced_qps =
        closed_loop(*st->service, list, clients, 0.0, kRounds,
                    timed_seconds / kRounds / 2, false, tracer.get());
    report.layers["trace_overhead_frac"] = qps / median(traced_qps) - 1.0;
  }

  std::uint64_t done = 0, not_ok = 0, fold = 0, expected = 0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    done += clients[c].done;
    not_ok += clients[c].not_ok;
    fold ^= clients[c].fold;
    for (std::uint64_t k = 0; k < clients[c].done; ++k) {
      expected ^= util::mix_seed(
          occurrence(c, k), ref_hash[(clients[c].start + k) % list.size()]);
    }
  }
  if (options.corrupt_output) fold ^= 1;
  report.attempted = done;
  report.failed = not_ok;
  report.check(fold == expected,
               "response fold differs from the uncached serial pass");
  report.note("response_fold", hex(fold));

  if (options.trace) {
    // Stage figures of the setup's pipeline run, re-driven.
    std::unique_ptr<Tracer> redrive_tracer;
    core::Funnel funnel;
    const auto figures = traced_redrives(
        *st->in.world, st->in.streams, config, threads, 0.0,
        core::dataset_digest(st->dataset), report, redrive_tracer, &funnel);
    core::Pipeline pipeline(config);
    std::vector<double> walls;
    for (int i = 0; i < 3; ++i) {
      const auto start = Clock::now();
      (void)pipeline.run(*st->in.world, st->in.streams);
      walls.push_back(seconds_since(start) * 1e3);
    }
    report_stage_layers(figures, funnel, median(walls), report);
    const std::span<const serve::Query> sample =
        list.subspan(0, std::min<std::size_t>(4096, list.size()));
    serve_probes(*st->service, sample, st->store.get(), report, tracer.get());
    const auto stats = st->store->stats();
    report.layers["tsdb.appends"] =
        static_cast<double>(stats.head_samples + stats.segment_samples);
    report.layers["tsdb.segments"] = static_cast<double>(stats.segments);
    write_trace(options, tracer.get(), report);
  }
}

// ---- stream-serve ---------------------------------------------------------------

constexpr std::size_t kReaderLatencyStride = 16;
constexpr std::size_t kRssRuns = 20;

struct StreamRepeat {
  stream::StreamResult result;
  /// Quantiles of this run's own tero.stream.* histograms.
  double ingest_p50_ms = 0.0, ingest_p95_ms = 0.0;
  double publish_p50_ms = 0.0, publish_p99_ms = 0.0;
  std::uint64_t windows_timed = 0;  ///< ingest-to-publish samples
  double cache_hit_ratio = 0.0;     ///< the reader's service
  double wall_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t query_failures = 0;
  std::uint64_t epochs_seen = 0;
  std::vector<std::uint32_t> latency_ns;
  double reader_s = 0.0;
};

/// One StreamPipeline::run into a fresh service, store and metrics
/// registry, with one closed-loop reader querying from the first visible
/// epoch to the end. Per-run quantiles (medianed over runs by the caller)
/// keep a burst of machine noise in one run from owning the tail.
StreamRepeat stream_repeat(const Inputs& in, stream::StreamConfig config,
                           std::span<const serve::Query> queries,
                           Tracer* tracer) {
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  serve::ServeConfig serve_config;
  serve_config.tsdb = &store;
  serve::QueryService service(serve_config);
  obs::MetricsRegistry registry;
  config.service = &service;
  config.tsdb = &store;
  config.tero.metrics = &registry;
  stream::StreamPipeline pipeline(config);

  StreamRepeat out;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (service.epoch() == 0 && !done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const auto start = Clock::now();
    std::uint64_t last_epoch = 0;
    std::size_t k = 0;
    while (!done.load(std::memory_order_acquire)) {
      const serve::Query& q = queries[k % queries.size()];
      const auto t0 = Clock::now();
      serve::QueryResponse response;
      if (tracer != nullptr && k % kTraceStride == 0) {
        const Tracer::Span span(tracer, "serve.query");
        response = service.query(q);
      } else {
        response = service.query(q);
      }
      const auto t1 = Clock::now();
      if (k % kReaderLatencyStride == 0) {
        out.latency_ns.push_back(static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
      }
      // A live epoch may not hold a key yet, so kNotFound is a valid
      // answer; anything else is a failed read.
      if (response.status != serve::QueryStatus::kOk &&
          response.status != serve::QueryStatus::kNotFound) {
        ++out.query_failures;
      }
      if (response.epoch > last_epoch) {
        last_epoch = response.epoch;
        ++out.epochs_seen;
      }
      ++k;
    }
    out.queries = k;
    out.reader_s = seconds_since(start);
  });
  const auto start = Clock::now();
  try {
    const Tracer::Span span(tracer, "stream.run");
    out.result = pipeline.run(*in.world, in.streams);
  } catch (...) {
    done.store(true, std::memory_order_release);
    reader.join();
    throw;
  }
  out.wall_s = seconds_since(start);
  done.store(true, std::memory_order_release);
  reader.join();
  const auto& ingest = registry.histogram("tero.stream.ingest_to_publish_ms");
  const auto& publish = registry.histogram("tero.stream.publish_ms");
  out.ingest_p50_ms = ingest.quantile(0.50);
  out.ingest_p95_ms = ingest.quantile(0.95);
  out.windows_timed = ingest.count();
  out.publish_p50_ms = publish.quantile(0.50);
  out.publish_p99_ms = publish.quantile(0.99);
  out.cache_hit_ratio = hit_ratio(service);
  return out;
}

void run_stream_serve(const Options& options, Report& report) {
  const Sizes sizes = sizes_for(options.tiny);
  const core::TeroConfig config =
      tero_config(options.seed, false, kStreamThreads);
  stream::StreamConfig stream_config;
  stream_config.tero = config;
  stream_config.window_size_s = 3600.0;
  stream_config.publish_every_windows = 8;
  // Delivery delays of up to two windows: some events arrive after their
  // window closed (late) or behind later events (out of order).
  stream_config.max_delivery_delay_s = 2 * stream_config.window_size_s;

  Inputs in;
  const double setup_s = timed_setup([&] {
    in = make_inputs(options.seed, sizes.stream_streamers, sizes.stream_days,
                     sizes.stream_thumbnails);
    stream::StreamPipeline construct(stream_config);
  });
  report.note("input_fingerprint",
              hex(perfbench::input_fingerprint(*in.world, in.streams)));

  // The batch-match contract: the streaming run's final dataset and
  // snapshot equal a noise-channel Pipeline::run over the same inputs.
  core::Pipeline batch(config);
  const core::Dataset reference = batch.run(*in.world, in.streams);
  const std::uint64_t digest = core::dataset_digest(reference);
  const auto ref_entries = serve::entries_from(reference);
  const std::string reference_bytes = snapshot_bytes(ref_entries);
  std::vector<serve::SnapshotEntry> with_samples;
  for (const auto& e : ref_entries) {
    if (e.samples > 0) with_samples.push_back(e);
  }
  perfbench::MixShares shares;
  shares.percentile = 0.35;
  shares.ecdf = 0.15;
  shares.mean = 0.15;
  shares.count = 0.1;
  shares.range = 0.25;
  const auto queries = perfbench::make_query_mix(
      with_samples, options.seed, sizes.query_list, shares,
      static_cast<std::int64_t>(sizes.stream_days) * perfbench::kDayMs);
  report.note("query_fingerprint", hex(perfbench::query_fingerprint(queries)));
  report.note("dataset_digest", hex(digest));
  const std::uint64_t flip = options.corrupt_output ? 1 : 0;

  // Process memory keeps growing by tens of KiB per StreamPipeline::run, so
  // the high-water mark is read after a fixed number of runs: a faster
  // program that fits more runs into the time must not read as bigger.
  double rss_at_fixed_runs = 0.0;
  const auto run_repeats = [&](double seconds, Tracer* tracer) {
    std::vector<StreamRepeat> repeats;
    const auto deadline = after(Clock::now(), seconds);
    while (Clock::now() < deadline ||
           repeats.size() < static_cast<std::size_t>(kMinRepeats)) {
      repeats.push_back(stream_repeat(in, stream_config, queries, tracer));
      if (repeats.size() == kRssRuns && rss_at_fixed_runs == 0.0) {
        rss_at_fixed_runs = peak_rss_mb();
      }
      const auto& r = repeats.back().result;
      report.check(!r.crashed, "stream run crashed");
      report.check((core::dataset_digest(r.dataset) ^ flip) == digest,
                   "stream dataset digest differs from batch");
      report.check(snapshot_bytes(r.final_entries) == reference_bytes,
                   "stream final snapshot differs from batch");
      // Drop the outputs once checked: memory must not grow with the
      // number of repeats a faster program fits into the run.
      repeats.back().result.dataset = core::Dataset{};
      repeats.back().result.final_entries = {};
    }
    return repeats;
  };
  // A short warm-up repeat keeps one-time costs out of the figures.
  (void)stream_repeat(in, stream_config, queries, nullptr);

  const double timed_seconds = options.trace ? options.seconds / 2
                                             : options.seconds;
  const auto repeats = run_repeats(timed_seconds, nullptr);
  std::vector<double> eps, reader_kqps;
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t events = 0, queries_done = 0, query_failures = 0;
  for (const auto& r : repeats) {
    eps.push_back(static_cast<double>(r.result.events) / r.wall_s);
    if (r.reader_s > 0) {
      reader_kqps.push_back(static_cast<double>(r.queries) / r.reader_s / 1e3);
    }
    latency_ns.insert(latency_ns.end(), r.latency_ns.begin(),
                      r.latency_ns.end());
    events += r.result.events;
    queries_done += r.queries;
    query_failures += r.query_failures;
  }
  // The histogram quantiles are sketch bucket values; their interquartile
  // mean over runs is both robust and continuous.
  const auto over_runs = [&](double StreamRepeat::*field) {
    std::vector<double> v;
    for (const auto& r : repeats) v.push_back(r.*field);
    return interquartile_mean(v);
  };
  const auto med_of = [&](const std::function<double(const StreamRepeat&)>& f) {
    std::vector<double> v;
    for (const auto& r : repeats) v.push_back(f(r));
    return median(v);
  };
  const double i2p_p50 = over_runs(&StreamRepeat::ingest_p50_ms);
  const double i2p_p95 = over_runs(&StreamRepeat::ingest_p95_ms);
  report.attempted = events + queries_done;
  report.failed = query_failures;
  report.note("repeats", std::to_string(repeats.size()));
  report.note("events_per_run", std::to_string(repeats.back().result.events));
  report.note("windows_per_run",
              std::to_string(repeats.back().result.windows_closed));
  report.note("ingest_to_publish_samples_per_run",
              std::to_string(repeats.back().windows_timed));

  if (rss_at_fixed_runs == 0.0) rss_at_fixed_runs = peak_rss_mb();
  report.note("peak_rss_mb_at_end", json_number(peak_rss_mb()));
  report.e2e("setup_s", setup_s, "s");
  report.e2e("peak_rss_mb", rss_at_fixed_runs, "MB");
  report.e2e("throughput_per_s", median(eps), "1/s");
  report.e2e("latency_p50_ms", i2p_p50, "ms");
  report.e2e("latency_tail_ms", i2p_p95, "ms");
  report.label("events_per_s", median(eps), "1/s");
  report.label("ingest_to_publish_p50_ms", i2p_p50, "ms");
  report.label("ingest_to_publish_p95_ms", i2p_p95, "ms");
  report.label("query_kqps", median(reader_kqps), "kqps");
  report.label("query_p50_us", quantile(latency_ns, 0.5) / 1e3, "us");
  report.label("query_p99_us", quantile(latency_ns, 0.99) / 1e3, "us");
  report.label("query_latency_samples", static_cast<double>(latency_ns.size()),
              "count");
  report.label("setup_s", setup_s, "s");
  report.label("peak_rss_mb", rss_at_fixed_runs, "MB");

  if (!options.trace) return;
  auto& l = report.layers;
  auto tracer = std::make_unique<Tracer>();
  const auto traced = run_repeats(options.seconds / 4, tracer.get());
  std::vector<double> traced_eps;
  for (const auto& r : traced) {
    traced_eps.push_back(static_cast<double>(r.result.events) / r.wall_s);
    report.attempted += r.result.events + r.queries;
    report.failed += r.query_failures;
  }
  l["trace_overhead_frac"] = median(eps) / median(traced_eps) - 1.0;

  const auto& last = repeats.back().result;
  for (const auto& [name, channel] :
       {std::pair{"to_extract", &stream::StreamResult::to_extract},
        std::pair{"to_clean", &stream::StreamResult::to_clean},
        std::pair{"to_sink", &stream::StreamResult::to_sink}}) {
    const std::string prefix = std::string("stream.") + name;
    l[prefix + ".stalls"] = med_of([channel](const StreamRepeat& r) {
      return static_cast<double>((r.result.*channel).stalls);
    });
    l[prefix + ".max_depth"] = med_of([channel](const StreamRepeat& r) {
      return static_cast<double>((r.result.*channel).max_depth);
    });
  }
  l["stream.publish_p50_ms"] = over_runs(&StreamRepeat::publish_p50_ms);
  l["stream.publish_p99_ms"] = over_runs(&StreamRepeat::publish_p99_ms);
  l["stream.epochs"] = static_cast<double>(last.epochs_published);
  l["stream.late_events"] = static_cast<double>(last.late_events);
  l["stream.windows_closed"] = static_cast<double>(last.windows_closed);
  l["serve.epochs_seen"] =
      med_of([](const StreamRepeat& r) { return double(r.epochs_seen); });
  l["reader.kqps"] = median(reader_kqps);
  l["reader.p99_us"] = quantile(latency_ns, 0.99) / 1e3;

  // Stage figures of the same computation, re-driven on a pool of the
  // stream's size; then the analysis stage alone, serially, per event.
  std::unique_ptr<Tracer> redrive_tracer;
  core::Funnel funnel;
  const auto figures =
      traced_redrives(*in.world, in.streams, config, kStreamThreads, 0.0,
                      digest, report, redrive_tracer, &funnel);
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    (void)batch.run(*in.world, in.streams);
    walls.push_back(seconds_since(start) * 1e3);
  }
  report_stage_layers(figures, funnel, median(walls), report);
  std::unique_ptr<Tracer> serial_tracer;
  const auto serial = traced_redrives(*in.world, in.streams, config, 1, 0.0,
                                      digest, report, serial_tracer, nullptr);
  const auto clean = serial.back().self_ms.find("analysis.task");
  if (clean != serial.back().self_ms.end()) {
    l["stream.clean_us_per_event"] =
        clean->second * 1e3 /
        static_cast<double>(std::max<std::uint64_t>(1, last.events));
  }

  // Read-path probes against a service holding the final snapshot and the
  // stream's own tsdb history.
  tsdb::TimeSeriesStore store{tsdb::TsdbConfig{}};
  serve::ServeConfig serve_config;
  serve_config.tsdb = &store;
  serve::QueryService service(serve_config);
  stream::StreamConfig probe_config = stream_config;
  probe_config.tero.metrics = nullptr;
  probe_config.service = &service;
  probe_config.tsdb = &store;
  (void)stream::StreamPipeline(probe_config).run(*in.world, in.streams);
  const std::span<const serve::Query> sample(
      queries.data(), std::min<std::size_t>(4096, queries.size()));
  serve_probes(service, sample, &store, report, tracer.get());
  l["serve.cache_hit_ratio"] =
      med_of([](const StreamRepeat& r) { return r.cache_hit_ratio; });
  const auto stats = store.stats();
  l["tsdb.appends"] =
      static_cast<double>(stats.head_samples + stats.segment_samples);
  l["tsdb.segments"] = static_cast<double>(stats.segments);
  write_trace(options, tracer.get(), report);
}

// ---- main -------------------------------------------------------------------------

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload batch-ocr|serve-read|stream-serve"
               " --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-output]"
               " [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--trace-dir" && has_value) {
      options.trace_dir = argv[++i];
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--corrupt-output") {
      options.corrupt_output = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "batch-ocr") {
      run_batch_ocr(options, report);
    } else if (options.workload == "serve-read") {
      run_serve_read(options, report);
    } else if (options.workload == "stream-serve") {
      run_stream_serve(options, report);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  print_report(options, report);
  return 0;
}
