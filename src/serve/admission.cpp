#include "serve/admission.hpp"

#include <algorithm>

namespace tero::serve {

AdmissionController::AdmissionController(double rate_qps, double burst)
    : enabled_(rate_qps > 0.0),
      rate_qps_(rate_qps),
      burst_(std::max(burst, rate_qps > 0.0 ? 1.0 : 0.0)),
      tokens_(burst_) {}

void AdmissionController::refill_locked(double now_s) {
  if (now_s > last_refill_) {
    tokens_ = std::min(burst_, tokens_ + (now_s - last_refill_) * rate_qps_);
    last_refill_ = now_s;
  }
}

bool AdmissionController::try_admit(double now_s, double cost) {
  if (!enabled()) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  if (rate_qps_ <= 0.0) return true;  // disabled since the flag was read
  refill_locked(now_s);
  if (tokens_ >= cost) {
    tokens_ -= cost;
    ++admitted_;
    return true;
  }
  ++shed_;
  return false;
}

void AdmissionController::set_rate(double now_s, double rate_qps,
                                   double burst) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool was_enabled = rate_qps_ > 0.0;
  if (was_enabled) {
    // Settle the accrued interval at the *old* rate before the step: tokens
    // earned up to now_s were earned under the old contract. Doing this
    // first is what makes a step at a refill boundary exact — a step-up
    // cannot retroactively mint (now_s - last_refill_) * (new - old) tokens
    // and a step-down cannot erase tokens already earned.
    refill_locked(now_s);
  } else {
    // Disabled buckets do no refill accounting; restart the clock so an
    // enable doesn't refill across the whole disabled span.
    last_refill_ = now_s;
  }
  rate_qps_ = rate_qps;
  enabled_.store(rate_qps_ > 0.0, std::memory_order_release);
  burst_ = std::max(burst > 0.0 ? burst : burst_,
                    rate_qps > 0.0 ? 1.0 : 0.0);
  if (!was_enabled && rate_qps_ > 0.0) {
    tokens_ = burst_;  // enabling starts full, as at construction
  }
  // Never negative, never above the (possibly smaller) new burst.
  tokens_ = std::clamp(tokens_, 0.0, burst_);
}

std::uint64_t AdmissionController::admitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_;
}

std::uint64_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

}  // namespace tero::serve
