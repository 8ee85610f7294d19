#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <thread>

namespace churnlab {

double RetryPolicy::BackoffMs(int retry) const {
  // Closed form instead of a multiply loop: O(1) at any attempt count, and
  // a non-finite intermediate (overflowing multiplier chain) clamps to the
  // cap instead of propagating inf/nan into the sleep duration.
  double backoff = initial_backoff_ms;
  if (retry > 1) {
    backoff *= std::pow(multiplier, static_cast<double>(retry - 1));
  }
  if (!std::isfinite(backoff)) return std::max(max_backoff_ms, 0.0);
  return std::clamp(backoff, 0.0, std::max(max_backoff_ms, 0.0));
}

Status RetryWithBackoff(
    const RetryPolicy& policy, const std::function<Status()>& fn,
    const std::function<void(int retry, const Status&)>& on_retry,
    const std::function<bool()>& progressed) {
  // 64-bit retry count: max_retries == INT_MAX must not wrap into a budget
  // that skips fn entirely or returns a default-constructed OK status.
  const int64_t max_retries = std::max(policy.max_retries, 0);
  int64_t retries = 0;  // since the last attempt that made progress
  for (;;) {
    Status last;
    try {
      last = fn();
    } catch (const std::exception& e) {
      last = Status::Internal(std::string("retried operation threw: ") +
                              e.what());
    } catch (...) {
      last = Status::Internal("retried operation threw a non-std exception");
    }
    if (last.ok()) return last;
    if (progressed && progressed()) retries = 0;
    if (retries == max_retries) return last;
    const int retry = static_cast<int>(++retries);  // <= INT_MAX by bound
    if (on_retry) on_retry(retry, last);
    const double backoff_ms = policy.BackoffMs(retry);
    if (backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
  }
}

}  // namespace churnlab
