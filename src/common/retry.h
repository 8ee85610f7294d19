#ifndef CHURNLAB_COMMON_RETRY_H_
#define CHURNLAB_COMMON_RETRY_H_

#include <functional>
#include <string>

#include "common/status.h"

namespace churnlab {

/// \brief Capped exponential backoff policy for retryable operations.
///
/// Attempt k (0-based) that fails sleeps
/// `min(initial_backoff_ms * multiplier^k, max_backoff_ms)` before attempt
/// k+1. `max_retries` counts *retries*, so an operation runs at most
/// `1 + max_retries` times. Used by serve shard tasks and snapshot writes
/// (docs/ROBUSTNESS.md §Retry policy).
struct RetryPolicy {
  /// Retries after the first attempt; 0 disables retrying.
  int max_retries = 2;
  double initial_backoff_ms = 1.0;
  double multiplier = 2.0;
  double max_backoff_ms = 50.0;

  /// Backoff before retry number `retry` (1-based), in milliseconds.
  double BackoffMs(int retry) const;
};

/// \brief Runs `fn` under `policy`, returning the first OK status or the
/// last failure after retries are exhausted.
///
/// Exceptions thrown by `fn` are captured as `Internal` statuses and count
/// as failed attempts (they do not propagate). `on_retry`, when set, is
/// invoked before each backoff sleep with the 1-based retry number and the
/// status that caused it — the serve layer uses it to bump retry metrics.
///
/// `progressed`, when set, is asked after each failed attempt whether that
/// attempt got further than the one before it. If it did, the retry number
/// (and so the backoff) starts again from 1: the budget bounds the retries
/// of one stuck step, not of the whole operation, so a long operation that
/// keeps advancing rides out sparse transient faults.
Status RetryWithBackoff(
    const RetryPolicy& policy, const std::function<Status()>& fn,
    const std::function<void(int retry, const Status&)>& on_retry = nullptr,
    const std::function<bool()>& progressed = nullptr);

}  // namespace churnlab

#endif  // CHURNLAB_COMMON_RETRY_H_
