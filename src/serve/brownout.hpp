#pragma once

#include <cstdint>
#include <string_view>

#include "serve/service.hpp"

namespace tero::serve {

/// Brownout degradation ladder (DESIGN.md §16): ordered service levels the
/// overload controller climbs *before* resorting to shedding. Each level
/// trades answer fidelity for cost — disabling expensive query kinds,
/// coarsening percentiles, widening the staleness budget — so the system
/// keeps answering cheap questions while it is saturated.
///
/// Determinism contract: what a level does to a query is a pure function of
/// (query kind, level) — never of shard health or thread timing — so a sweep that replays the same (seed, level schedule) produces
/// bit-identical outcomes at any thread count.
enum class BrownoutLevel : std::uint8_t {
  /// Normal operation: every kind served at full fidelity.
  kFull = 0,
  /// Cheap-kinds-only: refuse the kinds with the highest modeled cost (ECDF
  /// point evaluations, range scans over history). Point percentiles,
  /// means, counts and top-k — the dashboard staples — still serve. The
  /// name predates the removal of the point-answer cache and stays because
  /// decision logs carry it.
  kCachedOnly = 1,
  /// Also snap percentile params to the coarse palette {50, 90, 99} and
  /// refuse top-k scans.
  kCoarsePercentile = 2,
  /// Also prefer the previous epoch: answers carry STALE{age} markers and
  /// skip the fresh-epoch compute entirely. The staleness budget is wide
  /// open — an old answer beats no answer.
  kStaleTolerant = 3,
  /// Last rung before the admission controller sheds outright: only the
  /// three cheapest kinds (percentile/mean/count) survive, still coarse and
  /// stale. Everything else is refused with kBrownout.
  kShed = 4,
};

inline constexpr int kBrownoutLevels = 5;

[[nodiscard]] std::string_view to_string(BrownoutLevel level) noexcept;

/// Clamp an integer to a valid ladder rung.
[[nodiscard]] BrownoutLevel brownout_level(int level) noexcept;

/// What the ladder does to one query at one level.
struct BrownoutAction {
  /// Refused outright: answer with QueryStatus::kBrownout, cost ~nothing.
  bool refuse = false;
  /// Serve from the previous epoch with a STALE{age} marker (kStaleTolerant
  /// and above).
  bool prefer_stale = false;
  /// The (possibly rewritten) query to evaluate — kCoarsePercentile and
  /// above snap percentile params to the coarse palette.
  Query query;
  /// Relative service cost in capacity units (1.0 = a full-fidelity point
  /// percentile); the controller's queue model and the adaptive admission
  /// rate both price queries with this.
  double cost = 1.0;
};

/// Pure ladder semantics: (query, level) -> action. See the determinism
/// contract above; this is the single source of truth shared by
/// QueryService's live path and the control sweep's router.
[[nodiscard]] BrownoutAction apply_brownout(const Query& query,
                                            BrownoutLevel level);

/// Relative cost of serving `kind` at full fidelity (the level-0 price
/// apply_brownout starts from).
[[nodiscard]] double query_kind_cost(QueryKind kind) noexcept;

}  // namespace tero::serve
