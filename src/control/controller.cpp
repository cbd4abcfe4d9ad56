#include "control/controller.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeline.hpp"
#include "util/rng.hpp"

namespace tero::control {

namespace {

/// Estimated mean per-query cost of the workload mix at each ladder rung
/// (cost units; see serve::query_kind_cost and serve::apply_brownout). The
/// capacity model divides healthy capacity by this to price admission.
constexpr double kLevelCost[serve::kBrownoutLevels] = {1.0, 0.9, 0.55, 0.35,
                                                       0.25};

// Predictive extrapolation.
constexpr std::size_t kSlopeWindow = 8;  ///< offered-rate samples in the fit
constexpr double kHorizonTicks = 5.0;    ///< look-ahead, in ticks
constexpr double kUtilUp = 0.9;  ///< predicted utilization => pre-escalate

/// Byte-stable double rendering for the decision log: %.10g is fixed-width
/// enough to read and — because every logged value is already bit-identical
/// across thread counts — formats to identical bytes everywhere.
void append_double(std::string& out, const char* key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), " %s=%.10g", key, value);
  out += buffer;
}

}  // namespace

std::string_view to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kStatic: return "static";
    case Policy::kReactive: return "reactive";
    case Policy::kPredictive: return "predictive";
  }
  return "static";
}

Policy parse_policy(std::string_view text) {
  if (text == "static") return Policy::kStatic;
  if (text == "reactive") return Policy::kReactive;
  if (text == "predictive") return Policy::kPredictive;
  throw std::invalid_argument("unknown control policy: " +
                              std::string(text));
}

SignalSeries::SignalSeries()
    : shed(obs::MetricsRegistry::labeled("tero.serve.denied",
                                         {{"reason", "shed"}})) {}

Controller::Controller(ControllerConfig config) : config_(config) {
  config_.min_shards = std::max<std::size_t>(1, config_.min_shards);
  config_.max_shards = std::max(config_.max_shards, config_.min_shards);
  shards_ = std::clamp(config_.initial_shards, config_.min_shards,
                       config_.max_shards);
  config_.min_channel_capacity =
      std::max<std::size_t>(1, config_.min_channel_capacity);
  config_.base_channel_capacity = std::max(config_.base_channel_capacity,
                                           config_.min_channel_capacity);
  channel_capacity_ = config_.base_channel_capacity;
  rate_ = target_rate(serve::BrownoutLevel::kFull, shards_);
}

double Controller::target_rate(serve::BrownoutLevel level,
                               std::size_t healthy_shards) const {
  const double capacity =
      static_cast<double>(std::max<std::size_t>(1, healthy_shards)) *
      config_.shard_unit_qps;
  return config_.utilization_target * capacity /
         kLevelCost[static_cast<std::size_t>(level)];
}

double Controller::predicted_utilization() const {
  // Least-squares slope of the recent offered-rate samples, extrapolated
  // kHorizonTicks ahead. With fewer than two samples there is no slope and
  // the prediction is just the last observation.
  const std::size_t n = offered_history_.size();
  if (n == 0) return 0.0;
  double slope = 0.0;
  if (n >= 2) {
    double sum_i = 0.0, sum_y = 0.0, sum_iy = 0.0, sum_ii = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = static_cast<double>(i);
      sum_i += x;
      sum_y += offered_history_[i];
      sum_iy += x * offered_history_[i];
      sum_ii += x * x;
    }
    const double count = static_cast<double>(n);
    const double denom = count * sum_ii - sum_i * sum_i;
    if (denom > 0.0) slope = (count * sum_iy - sum_i * sum_y) / denom;
  }
  const double predicted = std::max(
      0.0, offered_history_.back() + slope * kHorizonTicks);
  return predicted;  // caller scales by cost / capacity
}

const Decision& Controller::tick(const Signals& signals) {
  const int level_before = level_;
  const std::size_t shards_before = shards_;
  const std::size_t channel_before = channel_capacity_;
  const double rate_before = rate_;

  std::string action = "hold";
  std::string reason;

  if (config_.policy != Policy::kStatic) {
    offered_history_.push_back(signals.offered_qps);
    if (offered_history_.size() > kSlopeWindow) {
      offered_history_.erase(offered_history_.begin());
    }

    const std::size_t healthy =
        shards_ > signals.breakers_open ? shards_ - signals.breakers_open : 1;

    bool hot = false;
    if (signals.burn_fast >= config_.burn_up &&
        signals.burn_slow >= config_.burn_up) {
      hot = true;
      reason = "burn";
    } else if (signals.shed_fraction >= config_.shed_up) {
      hot = true;
      reason = "shed";
    } else if (signals.queue_delay_s >= config_.queue_high_s) {
      hot = true;
      reason = "queue";
    } else if (config_.policy == Policy::kPredictive) {
      const double capacity =
          static_cast<double>(healthy) * config_.shard_unit_qps;
      const double util = predicted_utilization() *
                          kLevelCost[static_cast<std::size_t>(level_)] /
                          capacity;
      if (util >= kUtilUp) {
        hot = true;
        reason = "predict";
      }
    }

    const bool calm = signals.burn_fast < config_.burn_down &&
                      signals.burn_slow < config_.burn_down &&
                      signals.shed_fraction < config_.shed_up * 0.5 &&
                      signals.queue_delay_s <= config_.queue_low_s;

    if (hot) {
      calm_ticks_ = 0;
      // Escalation order is the resilience contract: brownout rungs engage
      // first (cheap fidelity trades), capacity is added next (gated on
      // every breaker being closed — never scale a known-bad fleet), and
      // squeezing the queue bound — which sheds — is the last resort.
      if (level_ < serve::kBrownoutLevels - 1) {
        ++level_;
        action = "ladder-up";
      } else if (signals.queue_delay_s >= config_.queue_high_s &&
                 signals.breakers_open == 0 &&
                 shards_ < config_.max_shards) {
        ++shards_;
        action = "scale-out";
      } else if (channel_capacity_ > config_.min_channel_capacity) {
        channel_capacity_ = std::max(config_.min_channel_capacity,
                                     channel_capacity_ / 2);
        action = "squeeze-queue";
      } else {
        action = "saturated";
      }
    } else if (calm) {
      if (++calm_ticks_ >= config_.hold_ticks) {
        calm_ticks_ = 0;
        // Recovery unwinds in reverse: queue bound first, then the ladder,
        // then surplus capacity (only when the offered load clearly fits
        // the smaller fleet — no flapping at the boundary).
        if (channel_capacity_ < config_.base_channel_capacity) {
          channel_capacity_ = std::min(config_.base_channel_capacity,
                                       channel_capacity_ * 2);
          action = "relax-queue";
        } else if (level_ > 0) {
          --level_;
          action = "ladder-down";
        } else if (shards_ > config_.min_shards &&
                   signals.offered_qps *
                           kLevelCost[static_cast<std::size_t>(level_)] <
                       0.8 * target_rate(serve::brownout_level(level_),
                                         shards_ - 1)) {
          --shards_;
          action = "scale-in";
        }
        if (action != "hold") reason = "calm";
      }
    } else {
      calm_ticks_ = 0;
    }

    const std::size_t healthy_after =
        shards_ > signals.breakers_open ? shards_ - signals.breakers_open : 1;
    rate_ = target_rate(serve::brownout_level(level_), healthy_after);
  }

  Decision decision;
  decision.tick = ticks_++;
  decision.t_ms = signals.t_ms;
  decision.brownout = serve::brownout_level(level_);
  decision.admission_rate_qps = rate_;
  decision.admission_burst = rate_ * config_.burst_s;
  decision.shards = shards_;
  decision.channel_capacity = channel_capacity_;
  decision.changed = level_ != level_before || shards_ != shards_before ||
                     channel_capacity_ != channel_before ||
                     rate_ != rate_before;
  decision.action = std::move(action);
  decision.reason = std::move(reason);
  decision.signals = signals;
  decisions_.push_back(std::move(decision));
  return decisions_.back();
}

void Controller::write_log(std::ostream& os) const {
  for (const Decision& d : decisions_) {
    std::string line;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "tick=%llu t_ms=%llu policy=%s action=%s",
                  static_cast<unsigned long long>(d.tick),
                  static_cast<unsigned long long>(d.t_ms),
                  std::string(to_string(config_.policy)).c_str(),
                  d.action.c_str());
    line += head;
    if (!d.reason.empty()) {
      line += " reason=";
      line += d.reason;
    }
    char knobs[160];
    std::snprintf(knobs, sizeof(knobs), " level=%d:%s shards=%zu chancap=%zu",
                  static_cast<int>(d.brownout),
                  std::string(serve::to_string(d.brownout)).c_str(),
                  d.shards, d.channel_capacity);
    line += knobs;
    append_double(line, "rate", d.admission_rate_qps);
    append_double(line, "burst", d.admission_burst);
    append_double(line, "offered", d.signals.offered_qps);
    append_double(line, "shed", d.signals.shed_fraction);
    append_double(line, "queue", d.signals.queue_depth);
    append_double(line, "queue_s", d.signals.queue_delay_s);
    append_double(line, "p99", d.signals.p99_ms);
    append_double(line, "burn_fast", d.signals.burn_fast);
    append_double(line, "burn_slow", d.signals.burn_slow);
    char tail[64];
    std::snprintf(tail, sizeof(tail), " firing=%d breakers=%zu",
                  d.signals.slo_firing ? 1 : 0, d.signals.breakers_open);
    line += tail;
    os << line << '\n';
  }
}

std::string Controller::log_text() const {
  std::ostringstream os;
  write_log(os);
  return os.str();
}

std::uint64_t Controller::log_digest() const {
  const std::string text = log_text();
  return util::fnv1a64({text.data(), text.size()});
}

Signals Controller::scrape(const obs::MetricsTimeline& timeline,
                           const obs::SloTracker* slo,
                           const SignalSeries& series) {
  Signals signals;
  signals.t_ms = timeline.last_scrape_ms();
  signals.offered_qps = timeline.rate(series.arrivals,
                                      series.fast_window_ms);
  const double shed_rate = timeline.rate(series.shed, series.fast_window_ms);
  signals.shed_fraction =
      signals.offered_qps > 0.0 ? shed_rate / signals.offered_qps : 0.0;
  signals.queue_depth = timeline.gauge_value(series.queue_depth);
  signals.p99_ms =
      timeline.quantile(series.latency, 0.99, series.fast_window_ms);
  if (slo != nullptr) {
    for (const obs::SloStatus& status : slo->status()) {
      if (status.slo == series.slo) {
        signals.burn_fast = status.burn_fast;
        signals.burn_slow = status.burn_slow;
        signals.slo_firing = status.firing;
        break;
      }
    }
  }
  return signals;
}

}  // namespace tero::control
