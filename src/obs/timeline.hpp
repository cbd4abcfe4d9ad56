#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tero::obs {

class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;

/// Virtual-time metrics scraper: snapshots a MetricsRegistry every
/// `scrape_every_ms` of *virtual* time into a fixed-capacity buffer, giving
/// any run a full telemetry history (rates, windowed quantiles, burn-rate
/// inputs) without wall clocks anywhere in the data.
///
/// Determinism contract (DESIGN.md §13): advance_to() is driven by the
/// loadgen/stream virtual clock from the serial accounting sections, series
/// are iterated in the registry's sorted order, and the prefix filter limits
/// scraping to series whose values are pure functions of (seed, input) — so
/// two same-seed runs produce byte-identical write_json() output at any
/// thread count. The timeline itself is not thread-safe: scrape and query
/// from the serial section only (the registry underneath stays thread-safe
/// for the writers).
///
/// Encoding: counters are delta-encoded per snapshot (totals are recovered
/// by prefix sum — nothing is ever dropped, see downsampling), gauges keep
/// the last value, histograms keep cumulative count/sum/fixed buckets plus
/// the full sketch state so windowed quantiles come from exact bucket-wise
/// subtraction between two snapshots. On overflow past `capacity` the
/// buffer downsamples: adjacent snapshot pairs merge (deltas add, the later
/// point's state survives) and the scrape interval doubles, preserving
/// total history at half the resolution.
struct TimelineConfig {
  std::uint64_t scrape_every_ms = 1000;
  std::size_t capacity = 512;  ///< max snapshots held; >= 2
  /// Series-name prefixes to scrape; empty = every series. Determinism
  /// gates list only virtual-time-driven series here (e.g. "tero.loadgen.").
  std::vector<std::string> prefixes;
};

class MetricsTimeline {
 public:
  MetricsTimeline(const MetricsRegistry& registry, TimelineConfig config);

  /// Advance the virtual clock; takes one scrape per interval boundary
  /// crossed (a big jump emits every intermediate snapshot, so history has
  /// no gaps). Idempotent for non-advancing calls. Inline fast path: calls
  /// that don't cross a boundary — the per-event common case — cost one
  /// compare, so call sites can invoke this unconditionally in hot loops.
  void advance_to(std::uint64_t virtual_ms) {
    if (virtual_ms >= next_scrape_ms_) advance_slow(virtual_ms);
  }

  /// Force one scrape stamped at `virtual_ms` (advance_to's worker; also
  /// used for a final flush at end of run).
  void scrape(std::uint64_t virtual_ms);

  /// End-of-run capture: advance to `virtual_ms` and, if the tail of the
  /// run fell short of the next boundary, take one final scrape at
  /// `virtual_ms` so the last partial interval is never lost.
  void flush(std::uint64_t virtual_ms);

  /// Invoked after every scrape with the snapshot's virtual timestamp —
  /// the SloTracker attaches here so SLO evaluation rides the same clock.
  void set_on_scrape(std::function<void(std::uint64_t)> callback) {
    on_scrape_ = std::move(callback);
  }

  [[nodiscard]] std::size_t snapshot_count() const noexcept {
    return snapshots_.size();
  }
  /// Current interval (doubles on each downsample).
  [[nodiscard]] std::uint64_t scrape_interval_ms() const noexcept {
    return interval_ms_;
  }
  [[nodiscard]] std::uint64_t last_scrape_ms() const noexcept {
    return snapshots_.empty() ? 0 : snapshots_.back().t_ms;
  }
  [[nodiscard]] std::vector<std::uint64_t> snapshot_times() const;

  /// Counter increase per second over the trailing `window_ms` ending at
  /// the last snapshot (0 when unknown series or fewer than one interval
  /// of history). The window is clamped to recorded history; time before
  /// the first snapshot counts from a zero origin.
  [[nodiscard]] double rate(std::string_view counter_name,
                            std::uint64_t window_ms) const;
  /// Counter increase (not per-second) over the trailing window.
  [[nodiscard]] double increase(std::string_view counter_name,
                                std::uint64_t window_ms) const;
  /// Last scraped gauge value (0 when unknown).
  [[nodiscard]] double gauge_value(std::string_view name) const;
  /// Last scraped counter total (0 when unknown).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
  /// Quantile of histogram samples that landed inside the trailing window
  /// (sketch subtraction between the window's bracketing snapshots; 0 when
  /// the window saw no samples).
  [[nodiscard]] double quantile(std::string_view histogram_name, double q,
                                std::uint64_t window_ms) const;
  /// Mean of histogram samples inside the trailing window.
  [[nodiscard]] double windowed_mean(std::string_view histogram_name,
                                     std::uint64_t window_ms) const;
  /// Count of histogram samples inside the trailing window.
  [[nodiscard]] std::uint64_t windowed_count(std::string_view histogram_name,
                                             std::uint64_t window_ms) const;
  /// True when the series has ever been scraped (any kind).
  [[nodiscard]] bool has_series(std::string_view name) const;

  /// Full history as one JSON object (deterministic byte-for-byte given
  /// deterministic scraped series — the CI bit-identity diff runs on this).
  void write_json(std::ostream& os) const;
  /// Full history in Prometheus text format with millisecond timestamps
  /// (one sample line per snapshot per series).
  void write_prom(std::ostream& os) const;

 private:
  struct SketchState {
    std::vector<std::pair<int, std::uint64_t>> buckets;
    std::uint64_t underflow = 0;
  };
  struct HistPoint {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<std::uint64_t> bucket_counts;  ///< per-bucket, overflow last
    SketchState sketch;                        ///< cumulative
  };
  struct Snapshot {
    std::uint64_t t_ms = 0;
    /// Indexed by series id; series discovered after this snapshot simply
    /// aren't present (shorter vectors read as zero/absent).
    std::vector<std::uint64_t> counter_deltas;
    std::vector<double> gauges;
    std::vector<HistPoint> hists;
  };
  struct HistMeta {
    double gamma = 0.0;           ///< sketch gamma_of(alpha), for quantile_of
    std::vector<double> bounds;   ///< fixed bucket bounds, for exposition
  };

  [[nodiscard]] bool included(std::string_view name) const;
  /// advance_to's out-of-line half: loops scrape() over every boundary
  /// crossed.
  void advance_slow(std::uint64_t virtual_ms);
  /// Re-list the registry, intern any new series, and rebuild the cached
  /// (id, pointer) scrape lists. Called only when the registry's
  /// mutation_epoch() moved, so a steady-state scrape touches no strings
  /// and allocates nothing beyond the snapshot itself.
  void refresh_series_cache(std::uint64_t epoch);
  void downsample();
  /// Index of the first snapshot with t > last - window (the window's
  /// content); snapshots_[i - 1] (or a zero origin) is the baseline.
  [[nodiscard]] std::size_t window_begin(std::uint64_t window_ms) const;
  [[nodiscard]] const HistPoint* hist_point(const Snapshot& snap,
                                            std::size_t sid) const;

  const MetricsRegistry* registry_;
  TimelineConfig config_;
  std::uint64_t interval_ms_;
  std::uint64_t next_scrape_ms_;
  std::function<void(std::uint64_t)> on_scrape_;

  // Series tables: name -> dense id, append-only in first-seen order
  // (deterministic because scrapes are serial and registry iteration is
  // sorted).
  std::map<std::string, std::size_t, std::less<>> counter_ids_;
  std::map<std::string, std::size_t, std::less<>> gauge_ids_;
  std::map<std::string, std::size_t, std::less<>> hist_ids_;
  std::vector<std::uint64_t> counter_last_total_;  ///< by counter id
  std::vector<HistMeta> hist_meta_;                ///< by histogram id

  // Scrape cache: the included series as (id, live pointer) pairs, valid
  // for the registry epoch it was built against (pointers are stable until
  // a series is removed or the registry resets — both bump the epoch).
  std::uint64_t cache_epoch_ = 0;
  bool cache_valid_ = false;
  std::vector<std::pair<std::size_t, const Counter*>> cached_counters_;
  std::vector<std::pair<std::size_t, const Gauge*>> cached_gauges_;
  std::vector<std::pair<std::size_t, const Histogram*>> cached_hists_;

  std::vector<Snapshot> snapshots_;
};

}  // namespace tero::obs
