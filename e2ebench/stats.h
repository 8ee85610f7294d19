#ifndef CHURNLAB_E2EBENCH_STATS_H_
#define CHURNLAB_E2EBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace churnlab {
namespace e2e {

/// Monotonic nanoseconds; every timestamp the benchmark records (client
/// records, backend spans) uses this one clock, so spans from different
/// threads can be joined by time.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(position);
  const size_t above = std::min(below + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return values[below] + (values[above] - values[below]) * fraction;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace e2e
}  // namespace churnlab

#endif  // CHURNLAB_E2EBENCH_STATS_H_
