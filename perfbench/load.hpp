#pragma once

// Benchmark-owned load generation: the Zipf sampler, the query mixes and the
// input fingerprints. Everything is a pure function of the seed argument and
// the generated inputs, and nothing here calls the program's own load
// generators, so the benchmark's load does not move when those are rewritten.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "synth/sessions.hpp"
#include "synth/world.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace tero;

/// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r + 1)^s,
/// sampled by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t operator()(util::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Order-sensitive running digest of generated inputs.
class Fingerprint {
 public:
  void u64(std::uint64_t v) { h_ = util::mix_seed(h_, v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) { u64(util::fnv1a64({s.data(), s.size()})); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x9e4f5eedULL;
};

/// Digest of a synthetic world and its ground-truth streams.
inline std::uint64_t input_fingerprint(
    const synth::World& world, std::span<const synth::TrueStream> streams) {
  Fingerprint f;
  f.u64(world.streamers().size());
  for (const auto& s : world.streamers()) {
    f.str(s.id);
    f.str(s.home_location.to_string());
    f.str(s.main_game);
    f.u64(s.relocation.has_value() ? 1 + s.relocation->day : 0);
  }
  f.u64(streams.size());
  for (const auto& stream : streams) {
    f.u64(stream.streamer_index);
    f.str(stream.game);
    f.u64(stream.points.size());
    for (const auto& p : stream.points) {
      f.f64(p.t);
      f.u64(static_cast<std::uint64_t>(p.latency_ms));
    }
  }
  return f.value();
}

inline std::uint64_t query_fingerprint(std::span<const serve::Query> queries) {
  Fingerprint f;
  f.u64(queries.size());
  for (const auto& q : queries) {
    f.u64(static_cast<std::uint64_t>(q.kind));
    f.str(q.location.to_string());
    f.str(q.game);
    f.f64(q.param);
    f.u64(q.k);
    f.u64(static_cast<std::uint64_t>(q.t0_ms));
    f.u64(static_cast<std::uint64_t>(q.t1_ms));
    f.u64(static_cast<std::uint64_t>(q.window_ms));
  }
  return f.value();
}

inline constexpr std::int64_t kHourMs = 3'600'000;
inline constexpr std::int64_t kDayMs = 24 * kHourMs;

/// Shares of the query kinds in a mix (need not sum to 1; normalized).
struct MixShares {
  double percentile = 0.0;  ///< continuous param in [1, 99.9]
  double ecdf = 0.0;        ///< continuous param in [10, 250] ms
  double mean = 0.0;
  double count = 0.0;
  double topk = 0.0;        ///< k in {3, 5, 10}
  double range = 0.0;       ///< count / mean / p50|p90|p99 over a window
};

/// A query list over `entries` (Zipf(s=1) key popularity under a seeded
/// rank permutation, so popularity does not follow key order). Range kinds
/// pick a window inside [0, horizon_ms): spans of 1-3 days at 1 h, 6 h or
/// 1 d resolution, starting on a whole hour, so popular keys repeat some
/// range queries while the continuous point params almost never repeat.
inline std::vector<serve::Query> make_query_mix(
    std::span<const serve::SnapshotEntry> entries, std::uint64_t seed,
    std::size_t n, const MixShares& shares, std::int64_t horizon_ms) {
  util::Rng rng(util::mix_seed(seed, 0x9e40ad1157ULL));
  std::vector<std::size_t> key_rank(entries.size());
  for (std::size_t i = 0; i < key_rank.size(); ++i) key_rank[i] = i;
  rng.shuffle(key_rank);
  std::vector<std::string> games;
  for (const auto& e : entries) {
    if (std::find(games.begin(), games.end(), e.game) == games.end()) {
      games.push_back(e.game);
    }
  }
  const Zipf key_zipf(entries.size(), 1.0);
  const Zipf game_zipf(games.size(), 1.0);
  const double weights[] = {shares.percentile, shares.ecdf, shares.mean,
                            shares.count,      shares.topk, shares.range};

  std::vector<serve::Query> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::Query q;
    const auto& entry = entries[key_rank[key_zipf(rng)]];
    q.location = entry.location;
    q.game = entry.game;
    switch (rng.pick_weighted(weights)) {
      case 0:
        q.kind = serve::QueryKind::kPercentile;
        q.param = rng.uniform(1.0, 99.9);
        break;
      case 1:
        q.kind = serve::QueryKind::kEcdf;
        q.param = rng.uniform(10.0, 250.0);
        break;
      case 2: q.kind = serve::QueryKind::kMean; break;
      case 3: q.kind = serve::QueryKind::kCount; break;
      case 4: {
        q.kind = serve::QueryKind::kTopK;
        q.game = games[game_zipf(rng)];
        const std::size_t ks[] = {3, 5, 10};
        q.k = ks[rng.uniform_int(0, 2)];
        break;
      }
      default: {
        const serve::QueryKind kinds[] = {serve::QueryKind::kRangeCount,
                                          serve::QueryKind::kRangeMean,
                                          serve::QueryKind::kRangePercentile};
        q.kind = kinds[rng.uniform_int(0, 2)];
        const double pcts[] = {50.0, 90.0, 99.0};
        q.param = pcts[rng.uniform_int(0, 2)];
        const std::int64_t windows[] = {kHourMs, 6 * kHourMs, kDayMs};
        q.window_ms = windows[rng.uniform_int(0, 2)];
        const std::int64_t span = kDayMs * rng.uniform_int(1, 3);
        const std::int64_t last_start =
            std::max<std::int64_t>(0, (horizon_ms - span) / kHourMs);
        q.t0_ms = kHourMs * rng.uniform_int(0, last_start);
        q.t1_ms = q.t0_ms + span;
        break;
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace perfbench
