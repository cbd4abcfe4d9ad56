#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace tero::serve {

/// Thread-safe token-bucket admission control for the query front door —
/// the same refill arithmetic as download::TokenBucket (App. A's API quota
/// model), adapted for concurrent callers and caller-supplied clocks.
///
/// The clock is explicit: `now_s` is any monotonic seconds value. The live
/// service passes wall time; the deterministic load generator passes
/// *virtual* arrival times, which is what makes shed decisions reproducible
/// for any thread count (decisions are taken in arrival order — see
/// loadgen.cpp).
///
/// rate_qps <= 0 disables admission control entirely (every request is
/// admitted and nothing is counted). A disabled controller answers from one
/// atomic flag without taking the mutex, so concurrent readers of a service
/// without admission share no written cache line here; the enabled path
/// stays serial under the mutex.
class AdmissionController {
 public:
  AdmissionController(double rate_qps, double burst);

  /// True iff the request at time `now_s` may proceed. `now_s` must be
  /// non-decreasing across calls for the refill math to be meaningful;
  /// slightly stale values only make admission more conservative.
  bool try_admit(double now_s, double cost = 1.0);

  /// Retune the bucket mid-run (the controller's actuation path). The
  /// accrued interval up to `now_s` refills at the *old* rate first, so a
  /// step-up never mints tokens retroactively and a step-down never claws
  /// back tokens already earned; the balance is then clamped into
  /// [0, new burst]. burst <= 0 keeps the old burst. Enabling (rate > 0
  /// from a disabled controller) starts with a full bucket; disabling
  /// (rate <= 0) stops all accounting, as at construction.
  void set_rate(double now_s, double rate_qps, double burst = 0.0);

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] double rate_qps() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rate_qps_;
  }
  [[nodiscard]] double burst() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return burst_;
  }
  [[nodiscard]] std::uint64_t admitted() const;
  [[nodiscard]] std::uint64_t shed() const;

 private:
  /// Refill the balance for time elapsed up to `now_s` at the current rate.
  /// Callers hold mutex_.
  void refill_locked(double now_s);

  /// rate_qps_ > 0, mirrored for the lock-free disabled check; written
  /// under mutex_ (constructor and set_rate).
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  // All guarded by mutex_ (set_rate retunes them mid-run).
  double rate_qps_;
  double burst_;
  double tokens_;
  double last_refill_ = 0.0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace tero::serve
