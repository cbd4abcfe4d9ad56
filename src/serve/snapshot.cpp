#include "serve/snapshot.hpp"

#include <algorithm>

#include "stats/descriptive.hpp"
#include "tero/pipeline.hpp"

namespace tero::serve {

double SnapshotEntry::percentile(double pct) const {
  if (sorted_values.empty()) return 0.0;
  return stats::percentile_sorted(sorted_values, pct);
}

double SnapshotEntry::ecdf(double x) const noexcept {
  if (sorted_values.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_values.begin(), sorted_values.end(),
                                   x);
  return static_cast<double>(it - sorted_values.begin()) /
         static_cast<double>(sorted_values.size());
}

std::string entry_key(const geo::Location& location, std::string_view game) {
  std::string key;
  key.reserve(game.size() + location.country.size() +
              location.region.size() + location.city.size() + 3);
  key += game;
  key += '|';
  key += location.country;
  key += '|';
  key += location.region;
  key += '|';
  key += location.city;
  return key;
}

Snapshot::Snapshot(std::uint64_t epoch, std::vector<SnapshotEntry> entries)
    : epoch_(epoch), entries_(std::move(entries)) {
  for (auto& entry : entries_) {
    if (entry.key.empty()) entry.key = entry_key(entry.location, entry.game);
    entry.samples = entry.sorted_values.size();
    std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  }
  // The stream sink's live view hands entries over in key order already;
  // check before paying for a sort.
  const auto by_key = [](const SnapshotEntry& a, const SnapshotEntry& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(entries_.begin(), entries_.end(), by_key)) {
    std::sort(entries_.begin(), entries_.end(), by_key);
  }
}

const SnapshotEntry* Snapshot::find(const geo::Location& location,
                                    std::string_view game) const {
  return find_key(entry_key(location, game));
}

const SnapshotEntry* Snapshot::find_key(std::string_view key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const SnapshotEntry& entry, std::string_view k) {
        return entry.key < k;
      });
  if (it == entries_.end() || it->key != key) return nullptr;
  return &*it;
}

std::vector<const SnapshotEntry*> Snapshot::worst_locations(
    std::string_view game, std::size_t k) const {
  // Entries sort by "game|..." so one game's block is contiguous.
  std::string prefix(game);
  prefix += '|';
  auto it = std::lower_bound(entries_.begin(), entries_.end(), prefix,
                             [](const SnapshotEntry& entry,
                                const std::string& p) {
                               return entry.key < p;
                             });
  std::vector<const SnapshotEntry*> candidates;
  for (; it != entries_.end() && it->key.rfind(prefix, 0) == 0; ++it) {
    if (it->samples > 0) candidates.push_back(&*it);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const SnapshotEntry* a, const SnapshotEntry* b) {
              if (a->box.p95 != b->box.p95) return a->box.p95 > b->box.p95;
              return a->key < b->key;
            });
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

SnapshotEntry entry_from(const core::LocationGameAggregate& aggregate) {
  SnapshotEntry entry;
  entry.location = aggregate.location;
  entry.game = aggregate.game;
  entry.key = entry_key(entry.location, entry.game);
  entry.streamers = aggregate.streamers;
  entry.sorted_values = aggregate.distribution;
  std::sort(entry.sorted_values.begin(), entry.sorted_values.end());
  entry.samples = entry.sorted_values.size();
  if (!entry.sorted_values.empty()) {
    entry.mean_ms = stats::mean(entry.sorted_values);
  }
  if (aggregate.box.has_value()) entry.box = *aggregate.box;
  entry.anomaly_flagged = aggregate.shared.sufficient_data &&
                          !aggregate.shared.anomalies.empty();
  entry.shared_anomalies = aggregate.shared.anomalies.size();
  entry.server_city = aggregate.server_city;
  entry.avg_corrected_distance_km = aggregate.avg_corrected_distance_km;
  return entry;
}

std::vector<SnapshotEntry> entries_from(const core::Dataset& dataset) {
  std::vector<SnapshotEntry> entries;
  entries.reserve(dataset.aggregates.size());
  for (const auto& aggregate : dataset.aggregates) {
    entries.push_back(entry_from(aggregate));
  }
  return entries;
}

}  // namespace tero::serve
