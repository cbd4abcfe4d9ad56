#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace tero::util {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. Every stochastic component in the library draws from an Rng
/// that is explicitly passed in, so all experiments are reproducible from a
/// single seed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Derive an independent child generator; used to give each simulated
  /// entity its own stream without coupling their draw sequences.
  [[nodiscard]] Rng fork() noexcept;

  /// Stateless per-task derivation: an independent generator for task
  /// `index` under `seed`. Unlike fork(), the result depends only on
  /// (seed, index) — not on how many draws happened before — which is what
  /// makes parallel loops bit-identical for any thread count: give task i
  /// the generator Rng::indexed(seed, i) and no draw sequence ever crosses
  /// a task boundary.
  [[nodiscard]] static Rng indexed(std::uint64_t seed,
                                   std::uint64_t index) noexcept;

  std::uint64_t next_u64() noexcept;

  // UniformRandomBitGenerator interface, usable with <random> distributions.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;
  /// Standard normal via Box-Muller.
  double normal() noexcept;
  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) noexcept;
  /// Poisson-distributed count with given mean (Knuth for small, normal
  /// approximation for large means).
  std::uint64_t poisson(double mean) noexcept;
  /// Pareto (heavy-tailed) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha) noexcept;

  /// Uniformly choose an element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>{items});
  }

  /// Choose an index with probability proportional to weights[i].
  std::size_t pick_weighted(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// 64-bit FNV-1a hash; used for consistent hashing of streamer IDs (§7 of the
/// paper: streamer IDs are pseudonymized before storage). `hash` continues a
/// running hash, so fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b): a key made of
/// several pieces hashes without being concatenated first.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a64(std::span<const char> bytes,
                                    std::uint64_t hash = kFnv1a64Basis) noexcept;

/// Mix two 64-bit values into one well-distributed seed (SplitMix64-based).
/// Basis of the seed-splitting scheme behind Rng::indexed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a,
                                     std::uint64_t b) noexcept;

}  // namespace tero::util
