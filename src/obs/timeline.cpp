#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"

namespace tero::obs {

namespace {

std::string fmt_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.12g", value);
  if (std::strtod(shorter, nullptr) == value) return shorter;
  return buffer;
}

}  // namespace

MetricsTimeline::MetricsTimeline(const MetricsRegistry& registry,
                                 TimelineConfig config)
    : registry_(&registry), config_(std::move(config)) {
  if (config_.scrape_every_ms == 0) {
    throw std::invalid_argument("MetricsTimeline: scrape_every_ms must be >0");
  }
  if (config_.capacity < 2) {
    throw std::invalid_argument("MetricsTimeline: capacity must be >= 2");
  }
  interval_ms_ = config_.scrape_every_ms;
  next_scrape_ms_ = interval_ms_;
}

bool MetricsTimeline::included(std::string_view name) const {
  if (config_.prefixes.empty()) return true;
  for (const auto& prefix : config_.prefixes) {
    if (name.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}

void MetricsTimeline::advance_slow(std::uint64_t virtual_ms) {
  while (virtual_ms >= next_scrape_ms_) {
    scrape(next_scrape_ms_);
    next_scrape_ms_ += interval_ms_;
  }
}

void MetricsTimeline::refresh_series_cache(std::uint64_t epoch) {
  cached_counters_.clear();
  cached_gauges_.clear();
  cached_hists_.clear();
  // Registry iteration is name-sorted, so series interning (and therefore
  // every snapshot's layout) is identical across same-seed runs.
  for (const auto& [name, counter] : registry_->counters()) {
    if (!included(name)) continue;
    const auto [it, inserted] =
        counter_ids_.try_emplace(name, counter_ids_.size());
    if (inserted) counter_last_total_.push_back(0);
    cached_counters_.emplace_back(it->second, counter);
  }
  for (const auto& [name, gauge] : registry_->gauges()) {
    if (!included(name)) continue;
    const std::size_t id =
        gauge_ids_.try_emplace(name, gauge_ids_.size()).first->second;
    cached_gauges_.emplace_back(id, gauge);
  }
  for (const auto& [name, histogram] : registry_->histograms()) {
    if (!included(name)) continue;
    const auto [it, inserted] = hist_ids_.try_emplace(name, hist_ids_.size());
    if (inserted) {
      hist_meta_.push_back(
          HistMeta{QuantileSketch::gamma_of(histogram->sketch().alpha()),
                   histogram->bounds()});
    }
    cached_hists_.emplace_back(it->second, histogram);
  }
  cache_epoch_ = epoch;
  cache_valid_ = true;
}

void MetricsTimeline::scrape(std::uint64_t virtual_ms) {
  const std::uint64_t epoch = registry_->mutation_epoch();
  if (!cache_valid_ || cache_epoch_ != epoch) refresh_series_cache(epoch);

  Snapshot snap;
  snap.t_ms = virtual_ms;
  if (!cached_counters_.empty()) {
    snap.counter_deltas.resize(counter_ids_.size(), 0);
  }
  if (!cached_gauges_.empty()) snap.gauges.resize(gauge_ids_.size(), 0.0);
  if (!cached_hists_.empty()) snap.hists.resize(hist_ids_.size());

  for (const auto& [id, counter] : cached_counters_) {
    const std::uint64_t total = counter->value();
    snap.counter_deltas[id] = total - counter_last_total_[id];
    counter_last_total_[id] = total;
  }
  for (const auto& [id, gauge] : cached_gauges_) {
    snap.gauges[id] = gauge->value();
  }
  for (const auto& [id, histogram] : cached_hists_) {
    HistPoint& point = snap.hists[id];
    point.count = histogram->count();
    point.sum = histogram->sum();
    point.bucket_counts = histogram->bucket_counts();
    point.sketch.buckets = histogram->sketch().export_buckets();
    point.sketch.underflow = histogram->sketch().underflow();
  }

  snapshots_.push_back(std::move(snap));
  if (snapshots_.size() > config_.capacity) downsample();
  if (on_scrape_) on_scrape_(virtual_ms);
}

void MetricsTimeline::flush(std::uint64_t virtual_ms) {
  advance_to(virtual_ms);
  if (snapshots_.empty() || snapshots_.back().t_ms < virtual_ms) {
    scrape(virtual_ms);
    next_scrape_ms_ = virtual_ms + interval_ms_;
  }
}

void MetricsTimeline::downsample() {
  // Merge adjacent pairs: counter deltas add, the later point's gauge and
  // histogram state survives (they are last-value / cumulative), the later
  // timestamp stands. Nothing is dropped, so prefix sums stay exact totals.
  std::vector<Snapshot> merged;
  merged.reserve(snapshots_.size() / 2 + 1);
  std::size_t i = 0;
  for (; i + 1 < snapshots_.size(); i += 2) {
    Snapshot& a = snapshots_[i];
    Snapshot& b = snapshots_[i + 1];
    if (b.counter_deltas.size() < a.counter_deltas.size()) {
      b.counter_deltas.resize(a.counter_deltas.size(), 0);
    }
    for (std::size_t c = 0; c < a.counter_deltas.size(); ++c) {
      b.counter_deltas[c] += a.counter_deltas[c];
    }
    merged.push_back(std::move(b));
  }
  if (i < snapshots_.size()) merged.push_back(std::move(snapshots_[i]));
  snapshots_ = std::move(merged);
  interval_ms_ *= 2;
}

std::vector<std::uint64_t> MetricsTimeline::snapshot_times() const {
  std::vector<std::uint64_t> times;
  times.reserve(snapshots_.size());
  for (const auto& snap : snapshots_) times.push_back(snap.t_ms);
  return times;
}

std::size_t MetricsTimeline::window_begin(std::uint64_t window_ms) const {
  const std::uint64_t last = snapshots_.back().t_ms;
  const std::uint64_t cutoff = last >= window_ms ? last - window_ms : 0;
  std::size_t begin = snapshots_.size();
  while (begin > 0 && snapshots_[begin - 1].t_ms > cutoff) --begin;
  return begin;
}

double MetricsTimeline::increase(std::string_view counter_name,
                                 std::uint64_t window_ms) const {
  const auto it = counter_ids_.find(counter_name);
  if (it == counter_ids_.end() || snapshots_.empty()) return 0.0;
  const std::size_t id = it->second;
  std::uint64_t total = 0;
  for (std::size_t i = window_begin(window_ms); i < snapshots_.size(); ++i) {
    if (id < snapshots_[i].counter_deltas.size()) {
      total += snapshots_[i].counter_deltas[id];
    }
  }
  return static_cast<double>(total);
}

double MetricsTimeline::rate(std::string_view counter_name,
                             std::uint64_t window_ms) const {
  if (snapshots_.empty()) return 0.0;
  const std::size_t begin = window_begin(window_ms);
  const std::uint64_t base_t = begin > 0 ? snapshots_[begin - 1].t_ms : 0;
  const std::uint64_t elapsed_ms = snapshots_.back().t_ms - base_t;
  if (elapsed_ms == 0) return 0.0;
  return increase(counter_name, window_ms) * 1000.0 /
         static_cast<double>(elapsed_ms);
}

double MetricsTimeline::gauge_value(std::string_view name) const {
  const auto it = gauge_ids_.find(name);
  if (it == gauge_ids_.end() || snapshots_.empty()) return 0.0;
  const auto& gauges = snapshots_.back().gauges;
  return it->second < gauges.size() ? gauges[it->second] : 0.0;
}

std::uint64_t MetricsTimeline::counter_total(std::string_view name) const {
  const auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? 0 : counter_last_total_[it->second];
}

const MetricsTimeline::HistPoint* MetricsTimeline::hist_point(
    const Snapshot& snap, std::size_t sid) const {
  return sid < snap.hists.size() ? &snap.hists[sid] : nullptr;
}

double MetricsTimeline::quantile(std::string_view histogram_name, double q,
                                 std::uint64_t window_ms) const {
  const auto it = hist_ids_.find(histogram_name);
  if (it == hist_ids_.end() || snapshots_.empty()) return 0.0;
  const std::size_t id = it->second;
  const HistPoint* last = hist_point(snapshots_.back(), id);
  if (last == nullptr) return 0.0;
  const std::size_t begin = window_begin(window_ms);
  const HistPoint* base =
      begin > 0 ? hist_point(snapshots_[begin - 1], id) : nullptr;

  // Windowed sketch = cumulative(last) - cumulative(baseline), bucket-wise.
  // Both exports are ascending by bucket index and the baseline's buckets
  // are a subset of the later snapshot's (counts only grow), so the
  // subtraction is one sorted merge — no scratch map, no scratch sketch.
  std::uint64_t underflow = last->sketch.underflow;
  std::vector<std::pair<int, std::uint64_t>> diff;
  const auto* window = &last->sketch.buckets;
  if (base != nullptr) {
    const auto& cur = last->sketch.buckets;
    const auto& old = base->sketch.buckets;
    diff.reserve(cur.size());
    std::size_t oi = 0;
    for (const auto& [index, count] : cur) {
      std::uint64_t subtract = 0;
      if (oi < old.size() && old[oi].first == index) {
        subtract = old[oi].second;
        ++oi;
      }
      if (count > subtract) diff.emplace_back(index, count - subtract);
    }
    underflow -= base->sketch.underflow;
    window = &diff;
  }
  if (window->empty() && underflow == 0) return 0.0;
  return QuantileSketch::quantile_of(hist_meta_[id].gamma, *window, underflow,
                                     q);
}

double MetricsTimeline::windowed_mean(std::string_view histogram_name,
                                      std::uint64_t window_ms) const {
  const auto it = hist_ids_.find(histogram_name);
  if (it == hist_ids_.end() || snapshots_.empty()) return 0.0;
  const HistPoint* last = hist_point(snapshots_.back(), it->second);
  if (last == nullptr) return 0.0;
  const std::size_t begin = window_begin(window_ms);
  const HistPoint* base =
      begin > 0 ? hist_point(snapshots_[begin - 1], it->second) : nullptr;
  const std::uint64_t count = last->count - (base != nullptr ? base->count : 0);
  if (count == 0) return 0.0;
  const double sum = last->sum - (base != nullptr ? base->sum : 0.0);
  return sum / static_cast<double>(count);
}

std::uint64_t MetricsTimeline::windowed_count(std::string_view histogram_name,
                                              std::uint64_t window_ms) const {
  const auto it = hist_ids_.find(histogram_name);
  if (it == hist_ids_.end() || snapshots_.empty()) return 0;
  const HistPoint* last = hist_point(snapshots_.back(), it->second);
  if (last == nullptr) return 0;
  const std::size_t begin = window_begin(window_ms);
  const HistPoint* base =
      begin > 0 ? hist_point(snapshots_[begin - 1], it->second) : nullptr;
  return last->count - (base != nullptr ? base->count : 0);
}

bool MetricsTimeline::has_series(std::string_view name) const {
  return counter_ids_.find(name) != counter_ids_.end() ||
         gauge_ids_.find(name) != gauge_ids_.end() ||
         hist_ids_.find(name) != hist_ids_.end();
}

void MetricsTimeline::write_json(std::ostream& os) const {
  os << "{\n  \"scrape_interval_ms\": " << interval_ms_
     << ",\n  \"snapshot_count\": " << snapshots_.size()
     << ",\n  \"snapshots\": [";
  // Running totals recovered from the delta encoding as we stream.
  std::vector<std::uint64_t> totals(counter_ids_.size(), 0);
  bool first_snap = true;
  for (const auto& snap : snapshots_) {
    os << (first_snap ? "\n" : ",\n") << "    {\"t_ms\": " << snap.t_ms
       << ", \"counters\": {";
    bool first = true;
    for (const auto& [name, id] : counter_ids_) {
      if (id >= snap.counter_deltas.size()) continue;
      totals[id] += snap.counter_deltas[id];
      os << (first ? "" : ", ") << '"' << json_escape(name)
         << "\": {\"delta\": " << snap.counter_deltas[id]
         << ", \"total\": " << totals[id] << '}';
      first = false;
    }
    os << "}, \"gauges\": {";
    first = true;
    for (const auto& [name, id] : gauge_ids_) {
      if (id >= snap.gauges.size()) continue;
      os << (first ? "" : ", ") << '"' << json_escape(name)
         << "\": " << fmt_number(snap.gauges[id]);
      first = false;
    }
    os << "}, \"histograms\": {";
    first = true;
    for (const auto& [name, id] : hist_ids_) {
      const HistPoint* point = hist_point(snap, id);
      if (point == nullptr) continue;
      os << (first ? "" : ", ") << '"' << json_escape(name)
         << "\": {\"count\": " << point->count
         << ", \"sum\": " << fmt_number(point->sum) << ", \"buckets\": [";
      for (std::size_t i = 0; i < point->bucket_counts.size(); ++i) {
        os << (i > 0 ? ", " : "") << point->bucket_counts[i];
      }
      os << "], \"sketch\": [";
      for (std::size_t i = 0; i < point->sketch.buckets.size(); ++i) {
        os << (i > 0 ? ", " : "") << '[' << point->sketch.buckets[i].first
           << ", " << point->sketch.buckets[i].second << ']';
      }
      os << "], \"underflow\": " << point->sketch.underflow << '}';
      first = false;
    }
    os << "}}";
    first_snap = false;
  }
  os << (first_snap ? "]" : "\n  ]") << "\n}\n";
}

void MetricsTimeline::write_prom(std::ostream& os) const {
  for (const auto& [series, id] : counter_ids_) {
    const ParsedSeriesName parsed = split_labeled_name(series);
    const std::string base = prom_name(parsed.name);
    const std::string labels = prom_label_block(parsed.labels);
    os << "# TYPE " << base << " counter\n";
    std::uint64_t total = 0;
    for (const auto& snap : snapshots_) {
      if (id >= snap.counter_deltas.size()) continue;
      total += snap.counter_deltas[id];
      os << base << labels << ' ' << total << ' ' << snap.t_ms << '\n';
    }
  }
  for (const auto& [series, id] : gauge_ids_) {
    const ParsedSeriesName parsed = split_labeled_name(series);
    const std::string base = prom_name(parsed.name);
    const std::string labels = prom_label_block(parsed.labels);
    os << "# TYPE " << base << " gauge\n";
    for (const auto& snap : snapshots_) {
      if (id >= snap.gauges.size()) continue;
      os << base << labels << ' ' << fmt_number(snap.gauges[id]) << ' '
         << snap.t_ms << '\n';
    }
  }
  for (const auto& [series, id] : hist_ids_) {
    const ParsedSeriesName parsed = split_labeled_name(series);
    const std::string base = prom_name(parsed.name);
    const std::string labels = prom_label_block(parsed.labels);
    const auto& bounds = hist_meta_[id].bounds;
    os << "# TYPE " << base << " histogram\n";
    for (const auto& snap : snapshots_) {
      const HistPoint* point = hist_point(snap, id);
      if (point == nullptr) continue;
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < point->bucket_counts.size(); ++i) {
        cumulative += point->bucket_counts[i];
        auto bucket_labels = parsed.labels;
        bucket_labels.emplace_back(
            "le", i < bounds.size() ? fmt_number(bounds[i]) : "+Inf");
        os << base << "_bucket" << prom_label_block(bucket_labels) << ' '
           << cumulative << ' ' << snap.t_ms << '\n';
      }
      os << base << "_sum" << labels << ' ' << fmt_number(point->sum) << ' '
         << snap.t_ms << '\n';
      os << base << "_count" << labels << ' ' << point->count << ' '
         << snap.t_ms << '\n';
    }
  }
}

}  // namespace tero::obs
