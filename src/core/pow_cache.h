#ifndef CHURNLAB_CORE_POW_CACHE_H_
#define CHURNLAB_CORE_POW_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace churnlab {
namespace core {

/// \brief Memoised clamped powers of alpha and lambda.
///
/// Extracted from SignificanceTracker so the serving layer's compact
/// storage can share one cache per shard instead of carrying three memo
/// tables per customer. Every entry is computed with ClampedPow (alpha) or
/// the eager product chain (lambda), so values are bit-identical to the
/// reference scan implementation's regardless of which customer first
/// faulted an entry in.
///
/// Not thread-safe — the const accessors lazily extend the tables. Use one
/// cache per tracker or per shard-behind-a-mutex.
class PowCache {
 public:
  PowCache(double alpha, double max_abs_exponent, double ewma_lambda);

  /// alpha^exponent with the max_abs_exponent clamp, memoised per integer
  /// exponent; exponents beyond the memo horizon are served by a direct
  /// ClampedPow call instead of growing the tables without bound.
  double PowAlpha(int64_t exponent) const {
    const std::vector<double>& table =
        exponent >= 0 ? alpha_pow_pos_ : alpha_pow_neg_;
    const uint64_t index = static_cast<uint64_t>(
        exponent >= 0 ? exponent : -exponent);
    return index < table.size() ? table[index] : FillAlpha(exponent);
  }

  /// lambda^exponent (exponent >= 0), memoised by repeated multiplication —
  /// the same product chain the eager per-window decay would perform.
  double PowLambda(int32_t exponent) const {
    const auto index = static_cast<size_t>(exponent);
    return index < lambda_pow_.size() ? lambda_pow_[index]
                                      : FillLambda(exponent);
  }

  /// Heap bytes held by the memo tables (excluding sizeof(*this)).
  size_t MemoryUsage() const;

 private:
  /// Memo misses: extend the tables (or compute directly past the horizon).
  /// Hits are served inline above, so the kernels' per-symbol loops make
  /// no call on the common path.
  double FillAlpha(int64_t exponent) const;
  double FillLambda(int32_t exponent) const;

  double alpha_;
  double max_abs_exponent_;
  double ewma_lambda_;
  /// alpha_pow_pos_[i] = alpha^i, alpha_pow_neg_[i] = alpha^-i,
  /// lambda_pow_[i] = lambda^i. Lazily extended by const accessors (hence
  /// mutable; see thread-safety note above).
  mutable std::vector<double> alpha_pow_pos_;
  mutable std::vector<double> alpha_pow_neg_;
  mutable std::vector<double> lambda_pow_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_POW_CACHE_H_
