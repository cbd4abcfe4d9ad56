#include "serve/brownout.hpp"

#include <algorithm>

namespace tero::serve {

std::string_view to_string(BrownoutLevel level) noexcept {
  switch (level) {
    case BrownoutLevel::kFull: return "full";
    case BrownoutLevel::kCachedOnly: return "cached-only";
    case BrownoutLevel::kCoarsePercentile: return "coarse-percentile";
    case BrownoutLevel::kStaleTolerant: return "stale-tolerant";
    case BrownoutLevel::kShed: return "shed";
  }
  return "full";
}

BrownoutLevel brownout_level(int level) noexcept {
  return static_cast<BrownoutLevel>(
      std::clamp(level, 0, kBrownoutLevels - 1));
}

double query_kind_cost(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kPercentile: return 1.0;
    case QueryKind::kMean: return 0.7;
    case QueryKind::kCount: return 0.5;
    case QueryKind::kEcdf: return 1.5;
    case QueryKind::kTopK: return 4.0;
    // History scans walk sealed segments — the expensive tail of the mix.
    case QueryKind::kRangeCount:
    case QueryKind::kRangeMean:
    case QueryKind::kRangePercentile:
    case QueryKind::kRangeDrift: return 6.0;
  }
  return 1.0;
}

namespace {

/// Coarse percentile palette (kCoarsePercentile and above): every percentile
/// request snaps to the nearest of these, collapsing the seven-value
/// dashboard palette into three answers per entry.
constexpr double kCoarsePercentiles[] = {50.0, 90.0, 99.0};

double snap_percentile(double param) {
  double best = kCoarsePercentiles[0];
  for (const double p : kCoarsePercentiles) {
    if (std::abs(p - param) < std::abs(best - param)) best = p;
  }
  return best;
}

/// A refusal is a fast rejection — roughly the price of a shed.
constexpr double kRefuseCost = 0.05;

}  // namespace

BrownoutAction apply_brownout(const Query& query, BrownoutLevel level) {
  BrownoutAction action;
  action.query = query;
  action.cost = query_kind_cost(query.kind);
  if (level == BrownoutLevel::kFull) return action;

  // kCachedOnly and above: the kinds with the highest modeled cost go
  // first. ECDF params are per-caller continuous values and range kinds scan
  // history.
  const bool expensive = query.kind == QueryKind::kEcdf ||
                         is_range_kind(query.kind);
  if (expensive) {
    action.refuse = true;
    action.cost = kRefuseCost;
    return action;
  }

  if (level >= BrownoutLevel::kCoarsePercentile) {
    if (query.kind == QueryKind::kTopK) {
      action.refuse = true;
      action.cost = kRefuseCost;
      return action;
    }
    if (query.kind == QueryKind::kPercentile) {
      action.query.param = snap_percentile(query.param);
      action.cost = 0.5;  // modeled: three shared answers per entry
    } else {
      action.cost = std::min(action.cost, 0.5);
    }
  }

  if (level >= BrownoutLevel::kStaleTolerant) {
    // Previous-epoch answers skip the fresh compute; the marginal cost is
    // the stale lookup plus the STALE bookkeeping.
    action.prefer_stale = true;
    action.cost = std::min(action.cost, 0.35);
  }

  if (level >= BrownoutLevel::kShed) {
    if (query.kind != QueryKind::kPercentile &&
        query.kind != QueryKind::kMean && query.kind != QueryKind::kCount) {
      action.refuse = true;
      action.cost = kRefuseCost;
      return action;
    }
    action.cost = std::min(action.cost, 0.25);
  }
  return action;
}

}  // namespace tero::serve
