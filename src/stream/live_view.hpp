#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "geo/geo.hpp"
#include "serve/snapshot.hpp"
#include "stream/window.hpp"

namespace tero::stream {

/// Live aggregation key: believed location (already truncated to the
/// aggregate granularity) and game.
struct RunningKey {
  geo::Location location;
  std::string game;

  auto operator<=>(const RunningKey&) const = default;
};

/// The sink's running per-{location, game} aggregates and the live serving
/// entries built from them (DESIGN.md §10). Each running aggregate caches
/// its built serve::SnapshotEntry and is dirty only after a window merged
/// into it, so a publish recomputes the sketch quantiles of the entries
/// that changed since the previous publish and copies the rest. Entries are
/// kept in snapshot-key order, so serve::Snapshot never has to sort them.
class LiveView {
 public:
  struct Running {
    std::unique_ptr<WindowAggregate> agg;
    std::set<std::string> streamers;
    serve::SnapshotEntry entry;  ///< cached live entry; stale while dirty
    bool dirty = true;
  };

  /// Fold one closed window (and its streamers) into `key`'s running
  /// aggregate, creating it on first use. Marks the entry dirty.
  void merge(const RunningKey& key, const WindowAggregate& window,
             const std::set<std::string>& streamers);

  /// Checkpoint restore: install `key`'s running aggregate as saved.
  void restore(const RunningKey& key, std::unique_ptr<WindowAggregate> agg,
               std::set<std::string> streamers);

  /// Running aggregates in RunningKey order (the checkpoint order).
  [[nodiscard]] const std::map<RunningKey, Running>& running() const noexcept {
    return running_;
  }

  /// The live entries in snapshot-key order. Rebuilds dirty entries only.
  [[nodiscard]] std::vector<serve::SnapshotEntry> entries();

 private:
  Running& slot(const RunningKey& key);

  std::map<RunningKey, Running> running_;
  std::vector<Running*> by_entry_key_;  ///< sorted by entry.key
};

}  // namespace tero::stream
