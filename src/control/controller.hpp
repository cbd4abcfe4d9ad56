#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "serve/brownout.hpp"

namespace tero::obs {
class MetricsTimeline;
class SloTracker;
}  // namespace tero::obs

namespace tero::control {

/// Closed-loop overload controller (DESIGN.md §16). The controller is a
/// deterministic state machine: every tick it reads a Signals struct —
/// scraped from the virtual-time MetricsTimeline / SloTracker, never from
/// wall clocks — and emits a Decision setting the four actuation knobs the
/// system exposes: the admission token rate, the brownout ladder rung, the
/// active shard count, and the stream channel capacity bounding the queue.
/// Because both inputs and transition rules are pure functions of virtual
/// time, the full decision log is bit-identical for any thread count and
/// reproducible per seed — resilience behavior itself is a determinism
/// gate.

enum class Policy : std::uint8_t {
  /// Fixed admission rate, no ladder, no scaling — the open-loop baseline
  /// today's BENCH_serve numbers come from.
  kStatic = 0,
  /// Multi-window burn-rate feedback: escalate while both the fast and the
  /// slow SLO burn windows run hot (or sheds/queue delay breach their
  /// floors), de-escalate after a sustained calm hold. Ladder rungs engage
  /// *before* the admission rate ever drops — brownout before shedding.
  kReactive = 1,
  /// Reactive plus slope extrapolation of the offered rate: pre-escalates
  /// when the *predicted* utilization a few ticks ahead breaches the
  /// target, buying headroom before the queue builds.
  kPredictive = 2,
};

[[nodiscard]] std::string_view to_string(Policy policy) noexcept;
/// Parse "static" | "reactive" | "predictive"; throws std::invalid_argument.
[[nodiscard]] Policy parse_policy(std::string_view text);

struct ControllerConfig {
  Policy policy = Policy::kReactive;
  std::uint64_t tick_every_ms = 100;

  /// Capacity model: one healthy shard serves this many cost units per
  /// second (a cost unit = one full-fidelity point percentile; see
  /// serve::query_kind_cost).
  double shard_unit_qps = 1000.0;
  std::size_t min_shards = 2;
  std::size_t max_shards = 8;
  std::size_t initial_shards = 4;

  /// Admission tracks `utilization_target * capacity / rung cost` so the
  /// queue drains instead of merely not growing; the static policy pins
  /// rate to target_rate(kFull, initial_shards) forever.
  double utilization_target = 0.9;
  /// Token-bucket burst, in seconds of admission at the current rate.
  double burst_s = 1.0;

  /// Stream channel capacity (cost units of queue the system will hold
  /// before overflow sheds); the last-resort squeeze halves it down to the
  /// floor, recovery restores it.
  std::size_t base_channel_capacity = 8192;
  std::size_t min_channel_capacity = 512;

  // Escalation thresholds (reactive + predictive).
  double burn_up = 1.0;      ///< both windows at/above => hot
  double burn_down = 0.5;    ///< both windows below => calm
  double shed_up = 0.005;    ///< shed fraction (fast window) => hot
  double queue_high_s = 0.5; ///< queue delay => hot
  double queue_low_s = 0.05; ///< queue delay below => calm
  std::uint64_t hold_ticks = 5;  ///< calm ticks before one de-escalation
};

/// One tick's inputs, all derived from virtual-time telemetry.
struct Signals {
  std::uint64_t t_ms = 0;
  double offered_qps = 0.0;    ///< arrival rate over the fast window
  double shed_fraction = 0.0;  ///< denied{shed} / arrivals, fast window
  double queue_depth = 0.0;    ///< backlog, cost units
  double queue_delay_s = 0.0;  ///< backlog / healthy capacity
  double p99_ms = 0.0;         ///< latency p99 over the fast window
  double burn_fast = 0.0;      ///< SLO fast-window burn rate
  double burn_slow = 0.0;      ///< SLO slow-window burn rate
  bool slo_firing = false;
  std::size_t breakers_open = 0;  ///< shards whose breaker is not closed
};

/// Series names Controller::scrape reads; defaults match the control
/// sweep's registry layout.
struct SignalSeries {
  std::string arrivals = "tero.control.arrivals";
  std::string shed;  ///< denied{reason=shed} counter; default set in .cpp
  std::string queue_depth = "tero.control.queue_depth";
  std::string latency = "tero.control.latency_ms";
  std::string slo = "latency";       ///< SLO name in the tracker
  std::uint64_t fast_window_ms = 2000;

  SignalSeries();
};

/// One controller decision: the post-tick knob settings plus the action
/// taken and the signals that caused it (rendered into the decision log).
struct Decision {
  std::uint64_t tick = 0;
  std::uint64_t t_ms = 0;
  serve::BrownoutLevel brownout = serve::BrownoutLevel::kFull;
  double admission_rate_qps = 0.0;
  double admission_burst = 0.0;
  std::size_t shards = 0;
  std::size_t channel_capacity = 0;
  bool changed = false;        ///< any knob moved this tick
  std::string action;          ///< "hold", "ladder-up", "scale-out", ...
  std::string reason;          ///< cause tag, e.g. "burn" or "queue"
  Signals signals;
};

class Controller {
 public:
  explicit Controller(ControllerConfig config);

  /// Advance one tick. Appends the decision to the log and returns it.
  const Decision& tick(const Signals& signals);

  [[nodiscard]] const ControllerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] serve::BrownoutLevel brownout() const noexcept {
    return serve::brownout_level(level_);
  }
  [[nodiscard]] double admission_rate() const noexcept { return rate_; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] std::size_t channel_capacity() const noexcept {
    return channel_capacity_;
  }
  [[nodiscard]] const std::vector<Decision>& decisions() const noexcept {
    return decisions_;
  }

  /// The admission rate the capacity model prescribes for (rung, shards):
  /// utilization_target * healthy capacity / estimated per-query cost at
  /// the rung. Exposed for tests and the bench's frontier math.
  [[nodiscard]] double target_rate(serve::BrownoutLevel level,
                                   std::size_t healthy_shards) const;

  /// Render the decision log, one line per tick. The format is fixed and
  /// every field is a deterministic function of (seed, config), so the
  /// bytes are identical across thread counts — `cmp` in CI relies on it.
  void write_log(std::ostream& os) const;
  [[nodiscard]] std::string log_text() const;
  /// fnv1a64 of log_text() — the compact witness recorded in BENCH JSON.
  [[nodiscard]] std::uint64_t log_digest() const;

  /// Scrape a Signals struct from virtual-time telemetry. breakers_open
  /// cannot be derived from the timeline (gauge names are per-endpoint);
  /// the caller fills it in afterwards.
  [[nodiscard]] static Signals scrape(const obs::MetricsTimeline& timeline,
                                      const obs::SloTracker* slo,
                                      const SignalSeries& series);

 private:
  [[nodiscard]] double predicted_utilization() const;

  ControllerConfig config_;
  int level_ = 0;               ///< brownout rung, 0..kBrownoutLevels-1
  std::size_t shards_;
  std::size_t channel_capacity_;
  double rate_;
  std::uint64_t calm_ticks_ = 0;
  std::uint64_t ticks_ = 0;
  std::vector<double> offered_history_;  ///< ring of recent offered rates
  std::vector<Decision> decisions_;
};

}  // namespace tero::control
