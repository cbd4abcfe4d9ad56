#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace tero::stream {

/// Mergeable incremental aggregate backing one tumbling-window (and one
/// running per-{location, game}) latency summary: count / mean / M2 via
/// Welford, plus the obs quantile sketch for box statistics. merge() uses
/// the parallel (Chan et al.) combination formula, so
///   fold(w1); fold(w2);  ==  fold(w1.merge(w2))
/// up to the formula's fixed floating-point evaluation order — window folds
/// always happen in window-close order, which is deterministic, so the
/// running state is bit-identical across thread counts and across
/// checkpoint/restore boundaries.
///
/// Not copyable (the sketch owns a mutex); held by unique_ptr in maps.
class WindowAggregate {
 public:
  /// `sketch_alpha` is the quantile sketch's relative-error parameter.
  explicit WindowAggregate(double sketch_alpha = 0.01)
      : sketch_(sketch_alpha) {}

  WindowAggregate(const WindowAggregate&) = delete;
  WindowAggregate& operator=(const WindowAggregate&) = delete;

  void add(double value) {
    ++count_;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    sketch_.add(value);
  }

  void merge(const WindowAggregate& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      count_ = other.count_;
      mean_ = other.mean_;
      m2_ = other.m2_;
    } else {
      const double na = static_cast<double>(count_);
      const double nb = static_cast<double>(other.count_);
      const double n = na + nb;
      const double delta = other.mean_ - mean_;
      mean_ += delta * nb / n;
      m2_ += other.m2_ + delta * delta * na * nb / n;
      count_ += other.count_;
    }
    sketch_.merge(other.sketch_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double m2() const noexcept { return m2_; }
  [[nodiscard]] double variance() const noexcept {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  [[nodiscard]] const obs::QuantileSketch& sketch() const noexcept {
    return sketch_;
  }

  /// Checkpoint support: replace the aggregate's exact state.
  void restore(std::uint64_t count, double mean, double m2,
               const std::vector<std::pair<int, std::uint64_t>>& buckets,
               std::uint64_t underflow) {
    count_ = count;
    mean_ = mean;
    m2_ = m2;
    sketch_.restore(buckets, underflow);
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  obs::QuantileSketch sketch_;
};

/// Tumbling window index of event time `t`: floor(t / size).
[[nodiscard]] inline std::int64_t window_of(double t, double size) noexcept {
  return static_cast<std::int64_t>(std::floor(t / size));
}

/// Low-watermark tracking over per-source watermarks (DESIGN.md §10).
///
/// A source (one ground-truth stream) opens when its first delivery
/// arrives, advances its own watermark with each of its events (event time
/// is non-decreasing within a source), and closes at its end marker. The
/// global low watermark W is the running maximum of min-over-open-sources:
/// W never regresses, and once W passes a window's end (+ allowed
/// lateness) that window closes. A source that opens late — its delivery
/// delay held its whole lifetime back while other sources pushed W forward
/// — produces late events, the `tero.stream.late` pathway.
class WatermarkTracker {
 public:
  void open(std::uint32_t source, double event_time) {
    open_.emplace(source, event_time);
    advance();
  }

  void update(std::uint32_t source, double event_time) {
    const auto it = open_.find(source);
    if (it == open_.end()) return;
    if (event_time > it->second) it->second = event_time;
    advance();
  }

  void close(std::uint32_t source) {
    open_.erase(source);
    advance();
  }

  [[nodiscard]] double watermark() const noexcept { return watermark_; }
  [[nodiscard]] std::size_t open_sources() const noexcept {
    return open_.size();
  }

  /// Checkpoint support.
  [[nodiscard]] const std::map<std::uint32_t, double>& open_map() const {
    return open_;
  }
  void restore(double watermark, std::map<std::uint32_t, double> open) {
    watermark_ = watermark;
    open_ = std::move(open);
  }

 private:
  void advance() {
    if (open_.empty()) return;
    double low = std::numeric_limits<double>::infinity();
    for (const auto& [source, wm] : open_) {
      if (wm < low) low = wm;
    }
    if (low > watermark_) watermark_ = low;
  }

  double watermark_ = -std::numeric_limits<double>::infinity();
  std::map<std::uint32_t, double> open_;
};

}  // namespace tero::stream
