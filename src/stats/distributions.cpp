#include "stats/distributions.hpp"

#include <math.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace tero::stats {

double normal_pdf(double x) noexcept {
  return std::exp(-0.5 * x * x) / std::sqrt(2.0 * std::numbers::pi);
}

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  // Acklam's algorithm.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Newton step against the true CDF.
  const double err = normal_cdf(x) - p;
  x -= err / normal_pdf(x);
  return x;
}

namespace {

/// log Γ(x). std::lgamma stores the sign of Γ(x) in the global `signgam`
/// (glibc), a data race when pool workers call it concurrently; lgamma_r
/// returns the same value and writes the sign to a local instead.
double log_gamma(double x) noexcept {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double log_binomial_coefficient(std::uint64_t n, std::uint64_t k) noexcept {
  if (k > n) return -std::numeric_limits<double>::infinity();
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial_pmf(std::uint64_t n, std::uint64_t k, double p) noexcept {
  if (k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double log_pmf = log_binomial_coefficient(n, k) +
                         static_cast<double>(k) * std::log(p) +
                         static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_pmf);
}

double binomial_tail(std::uint64_t n, std::uint64_t k, double p) noexcept {
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  // Sum from the tail; terms decay quickly past the mode.
  double total = 0.0;
  for (std::uint64_t i = k; i <= n; ++i) {
    const double term = binomial_pmf(n, i, p);
    total += term;
    if (i > k && term < 1e-18 * total) break;  // converged
  }
  return std::min(1.0, total);
}

double z_pvalue(double z) noexcept {
  return 2.0 * (1.0 - normal_cdf(std::abs(z)));
}

}  // namespace tero::stats
