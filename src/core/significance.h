#ifndef CHURNLAB_CORE_SIGNIFICANCE_H_
#define CHURNLAB_CORE_SIGNIFICANCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/customer_state.h"
#include "core/pow_cache.h"
#include "core/window.h"

namespace churnlab {
namespace core {

/// Which significance weighting to use.
enum class SignificanceKind : uint8_t {
  /// The paper's S(p,k) = alpha^(c(k) - l(k)).
  kAlphaPower = 0,
  /// Exponentially-weighted moving average of window presence:
  /// s_k = lambda * s_{k-1} + (1 - lambda) * [p in u_{k-1}], s in (0, 1].
  /// An extension for the ablation study: recent windows dominate, old
  /// history is forgotten at a fixed rate rather than the paper's
  /// count-difference rule.
  kEwma = 1,
};

/// Parameters of the significance weighting S(p,k) = alpha^(c(k) - l(k)).
struct SignificanceOptions {
  SignificanceKind kind = SignificanceKind::kAlphaPower;
  /// The paper's alpha. Must be > 0; the usual regime is alpha > 1 so that
  /// repeated purchases increase significance. The paper's experiments use
  /// alpha = 2 (chosen by 5-fold cross-validation).
  double alpha = 2.0;
  /// |c - l| is clamped to this bound before exponentiation so significance
  /// stays finite for arbitrarily long histories. 500 is far beyond the
  /// paper's 14-window horizon and exact for it.
  double max_abs_exponent = 500.0;
  /// Memory of the kEwma variant, in (0, 1). Larger = longer memory.
  double ewma_lambda = 0.7;
};

/// Stability of one window of one customer.
struct StabilityPoint {
  int32_t window_index = 0;
  /// Stability_i^k in [0, 1].
  double stability = 1.0;
  /// False when the significance table was empty (window 0, or no purchase
  /// ever observed before this window). The paper's formula is 0/0 there;
  /// we define stability = 1 — "no evidence of change" — and flag it so
  /// evaluations can skip burn-in windows.
  bool has_history = false;
  /// Numerator sum_{p in u_k} S(p,k) and denominator sum_{p in I} S(p,k),
  /// kept for diagnostics and tests.
  double present_significance = 0.0;
  double total_significance = 0.0;
};

/// \brief Incremental per-customer significance table (section 2 of the
/// paper).
///
/// For item p at window k, let c(k) = number of windows *before* k
/// containing p and l(k) = number of windows before k not containing p.
/// Since every prior window either contains p or not, c(k) + l(k) = k, so
/// the tracker stores only c(k) per symbol and the current window count.
/// The significance is
///
///   S(p,k) = alpha^(c(k) - l(k)) = alpha^(2*c(k) - k)   if c(k) > 0
///   S(p,k) = 0                                           otherwise.
///
/// The denominator of the stability formula, T_k = sum_{p in I} S(p,k), is
/// maintained incrementally from the algebraic identity
///
///   T_{k+1} = (T_k + (alpha^2 - 1) * sum_{p in u_k, c>0} S(p,k)) / alpha
///             + |{p in u_k : c = 0}| * alpha^(1-k),
///
/// which follows from S(p,k) = alpha^(-k) * alpha^(2c(p)): advancing a
/// window divides every term by alpha and multiplies each term of a present
/// symbol by alpha^2. AdvanceWindow therefore costs O(|u_k|) and
/// TotalSignificance() is O(1) — a full customer series costs O(total
/// purchases) instead of O(windows x seen catalogue).
///
/// Clamp caveat: the identity above is the *unclamped* algebra. It is exact
/// as long as no per-symbol exponent can hit the max_abs_exponent clamp,
/// which is guaranteed while windows_seen() <= max_abs_exponent (the
/// exponent 2c - k is bounded by +-k). Beyond that horizon the tracker
/// falls back to an exact O(distinct contain-counts) summation over a
/// contain-count histogram — still independent of the catalogue size, and
/// unreachable in the paper's regime (14 windows vs the default clamp of
/// 500).
///
/// Per-symbol state lives in arena blocks indexed by symbol (symbols are
/// dense ids produced by SymbolMapper), and alpha powers are served from a
/// memoised PowCache filled with the same ClampedPow the scan-based oracle
/// uses, so per-symbol significances agree bit-for-bit with
/// ReferenceSignificanceTracker, the test oracle in
/// tests/support/significance_reference.h.
///
/// The tracker owns one customer's CustomerScalars and CustomerBlocks and
/// the BlockArena they grow in, and runs the kernels of core/state_kernel.h
/// over them: the same compiled code the serving layer's state store runs
/// over its shard columns. The scalars include the scorer's and monitor's
/// fields, so OnlineStabilityScorer and StabilityMonitor keep all their
/// state in the tracker they own. Move-only.
///
/// Not thread-safe — including const accessors, which lazily extend the
/// memoised power tables. Use one tracker per thread.
///
/// Usage: for each window k in order, query significances (they reflect
/// windows 0..k-1), then call `AdvanceWindow(u_k)`.
class SignificanceTracker {
 public:
  explicit SignificanceTracker(SignificanceOptions options);

  /// Validates options (alpha > 0, max_abs_exponent >= 0).
  static Result<SignificanceTracker> Make(SignificanceOptions options);

  /// S(p, current window). Zero for never-seen symbols.
  double SignificanceOf(Symbol symbol) const;

  /// c(current window) for `symbol` — number of past windows containing it.
  int32_t ContainCount(Symbol symbol) const;

  /// l(current window) for `symbol`. Zero for never-seen symbols (their
  /// significance is 0 regardless).
  int32_t MissCount(Symbol symbol) const;

  /// Sum of S(p, current window) over every symbol in I. O(1) while the
  /// exponent clamp cannot bite (see class comment), O(distinct
  /// contain-counts) afterwards.
  double TotalSignificance() const;

  /// Sum of S(p, current window) over `symbols`, which must be sorted;
  /// duplicate neighbours are counted once. This is the stability
  /// numerator sum_{p in u_k} S(p,k).
  double PresentSignificance(const std::vector<Symbol>& symbols) const;

  /// Stability of window `window_index` with sorted symbol set `symbols`,
  /// scored against the current table: PresentSignificance over
  /// TotalSignificance, 1.0 without history. The streaming classes close
  /// their windows with the same function.
  StabilityPoint ScoreWindow(int32_t window_index,
                             const std::vector<Symbol>& symbols) const;

  /// All symbols with c > 0, ascending. (Stable ordering for reports.)
  std::vector<Symbol> SeenSymbols() const;

  /// Folds window k's symbol set into the counters, making the tracker
  /// reflect window k+1. `window_symbols` must be sorted and deduplicated
  /// (as produced by Windower).
  void AdvanceWindow(const std::vector<Symbol>& window_symbols);

  /// Number of windows folded in so far (the current k).
  int32_t windows_seen() const { return scalars_.windows_seen; }

  const SignificanceOptions& options() const { return options_; }

 private:
  friend class OnlineStabilityScorer;
  friend class StabilityMonitor;

  /// This customer's state as the kernels see it.
  CustomerState View() const {
    return {.windows_seen = scalars_.windows_seen,
            .num_seen = scalars_.num_seen,
            .incremental_total = scalars_.incremental_total,
            .ewma_total = scalars_.ewma_total,
            .current_window = scalars_.current_window,
            .last_observed_day = scalars_.last_observed_day,
            .last_stability = scalars_.last_stability,
            .has_previous = scalars_.has_previous,
            .low_streak = scalars_.low_streak,
            .blocks = blocks_,
            .arena = arena_};
  }

  SignificanceOptions options_;
  // Mutable because queries and updates share the one view type: const
  // queries read through it and never write.
  mutable CustomerScalars scalars_;
  mutable CustomerBlocks blocks_;
  /// One customer's blocks: no shared chunk, so each block is carved from
  /// a chunk of exactly its size class.
  mutable BlockArena arena_{0};
  PowCache pows_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_SIGNIFICANCE_H_
