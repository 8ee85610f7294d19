#include "core/pow_cache.h"

#include <cmath>
#include <cstdlib>

#include "common/math_util.h"

namespace churnlab {
namespace core {

namespace {
/// Exponents whose |value| exceeds this are served by a direct ClampedPow
/// call instead of growing the memo tables without bound. Far beyond the
/// default clamp of 500, so the tables cover every exact regime.
constexpr int64_t kMaxMemoisedExponent = 4096;
}  // namespace

PowCache::PowCache(double alpha, double max_abs_exponent, double ewma_lambda)
    : alpha_(alpha),
      max_abs_exponent_(max_abs_exponent),
      ewma_lambda_(ewma_lambda) {}

double PowCache::FillAlpha(int64_t exponent) const {
  if (std::llabs(exponent) > kMaxMemoisedExponent) {
    return ClampedPow(alpha_, static_cast<double>(exponent),
                      max_abs_exponent_);
  }
  std::vector<double>& table =
      exponent >= 0 ? alpha_pow_pos_ : alpha_pow_neg_;
  const size_t index = static_cast<size_t>(std::llabs(exponent));
  const int64_t sign = exponent >= 0 ? 1 : -1;
  while (table.size() <= index) {
    table.push_back(ClampedPow(alpha_,
                               static_cast<double>(sign) *
                                   static_cast<double>(table.size()),
                               max_abs_exponent_));
  }
  return table[index];
}

double PowCache::FillLambda(int32_t exponent) const {
  if (lambda_pow_.empty()) lambda_pow_.push_back(1.0);
  while (lambda_pow_.size() <= static_cast<size_t>(exponent)) {
    lambda_pow_.push_back(lambda_pow_.back() * ewma_lambda_);
  }
  return lambda_pow_[static_cast<size_t>(exponent)];
}

size_t PowCache::MemoryUsage() const {
  return (alpha_pow_pos_.capacity() + alpha_pow_neg_.capacity() +
          lambda_pow_.capacity()) *
         sizeof(double);
}

}  // namespace core
}  // namespace churnlab
