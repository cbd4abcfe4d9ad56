#include "stream/live_view.hpp"

#include <algorithm>

namespace tero::stream {

LiveView::Running& LiveView::slot(const RunningKey& key) {
  const auto [it, inserted] = running_.try_emplace(key);
  Running& running = it->second;
  if (inserted) {
    running.agg = std::make_unique<WindowAggregate>();
    running.entry.location = key.location;
    running.entry.game = key.game;
    running.entry.key = serve::entry_key(key.location, key.game);
    const auto pos = std::lower_bound(
        by_entry_key_.begin(), by_entry_key_.end(), running.entry.key,
        [](const Running* r, const std::string& k) { return r->entry.key < k; });
    by_entry_key_.insert(pos, &running);
  }
  return running;
}

void LiveView::merge(const RunningKey& key, const WindowAggregate& window,
                     const std::set<std::string>& streamers) {
  Running& running = slot(key);
  running.agg->merge(window);
  running.streamers.insert(streamers.begin(), streamers.end());
  running.dirty = true;
}

void LiveView::restore(const RunningKey& key,
                       std::unique_ptr<WindowAggregate> agg,
                       std::set<std::string> streamers) {
  Running& running = slot(key);
  running.agg = std::move(agg);
  running.streamers = std::move(streamers);
  running.dirty = true;
}

std::vector<serve::SnapshotEntry> LiveView::entries() {
  std::vector<serve::SnapshotEntry> out;
  out.reserve(by_entry_key_.size());
  for (Running* running : by_entry_key_) {
    if (running->dirty) {
      serve::SnapshotEntry& entry = running->entry;
      entry.streamers = running->streamers.size();
      entry.samples = static_cast<std::size_t>(running->agg->count());
      entry.mean_ms = running->agg->mean();
      const obs::QuantileSketch& sketch = running->agg->sketch();
      entry.box.p5 = sketch.quantile(0.05);
      entry.box.p25 = sketch.quantile(0.25);
      entry.box.p50 = sketch.quantile(0.50);
      entry.box.p75 = sketch.quantile(0.75);
      entry.box.p95 = sketch.quantile(0.95);
      running->dirty = false;
    }
    out.push_back(running->entry);
  }
  return out;
}

}  // namespace tero::stream
