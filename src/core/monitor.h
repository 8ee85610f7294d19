#ifndef CHURNLAB_CORE_MONITOR_H_
#define CHURNLAB_CORE_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/online_scorer.h"

namespace churnlab {
namespace core {

/// When the monitor raises an alert for a customer.
struct MonitorPolicy {
  /// Low-stability rule: alert when stability <= beta for
  /// `consecutive_windows` windows in a row (the paper's beta threshold,
  /// debounced).
  double beta = 0.6;
  int32_t consecutive_windows = 1;
  /// Sharp-drop rule: alert when stability falls by more than this between
  /// consecutive windows. Values > 1 disable the rule.
  double drop_threshold = 0.25;
  /// Windows to ignore at the start of the stream (no significance history
  /// yet, stability is vacuous there).
  int32_t warmup_windows = 2;
};

/// One raised alert.
struct StabilityAlert {
  enum class Kind : uint8_t {
    /// stability <= beta for the configured streak.
    kLowStability = 0,
    /// single-window drop exceeded drop_threshold.
    kSharpDrop = 1,
  };
  Kind kind = Kind::kLowStability;
  int32_t window_index = 0;
  double stability = 0.0;
  /// stability(previous) - stability(current); 0 for the first window.
  double drop = 0.0;

  std::string ToString() const;
};

/// \brief Streaming per-customer attrition alerting: an
/// OnlineStabilityScorer plus debounced threshold policies.
///
/// The policy evaluation lives in the shared kernels of
/// core/state_kernel.h, instantiated here over the nested State struct;
/// the serving layer's state store instantiates the same kernels over its
/// shard columns.
///
/// \code
///   auto monitor = StabilityMonitor::Make(scorer_options, policy)
///                      .ValueOrDie();
///   for (const auto& receipt : stream) {
///     for (const StabilityAlert& alert :
///          monitor.Observe(receipt.day, symbols).ValueOrDie()) {
///       notify_marketing(customer, alert);
///     }
///   }
/// \endcode
class StabilityMonitor {
 public:
  /// This monitor's own storage behind the shared kernels: the
  /// MonitorState concept of state_kernel.h over plain members.
  struct State {
    double last_stability = 1.0;
    uint8_t has_previous = 0;
    int32_t low_streak = 0;

    double& LastStability() { return last_stability; }
    uint8_t& HasPrevious() { return has_previous; }
    int32_t& LowStreak() { return low_streak; }
  };

  static Result<StabilityMonitor> Make(OnlineStabilityScorer::Options options,
                                       MonitorPolicy policy);

  /// Feeds one observation; returns alerts for every window that closed.
  /// Same stream-ordering contract as OnlineStabilityScorer::Observe.
  Result<std::vector<StabilityAlert>> Observe(
      retail::Day day, const std::vector<Symbol>& symbols);

  /// Closes windows up to the one containing `day` without a purchase.
  Result<std::vector<StabilityAlert>> AdvanceTo(retail::Day day);

  /// Closes the in-progress window and evaluates it against the policy
  /// (end-of-stream flush). No-op returning zero alerts when no observation
  /// was ever fed — the underlying scorer refuses to emit a vacuous window
  /// 0 point (see OnlineStabilityScorer::Finish), and a never-fed monitor
  /// has nothing to alert on.
  Result<std::vector<StabilityAlert>> Finish();

  /// Stability of the most recently closed window (1.0 before any closes).
  double last_stability() const { return state_.last_stability; }
  int32_t windows_closed() const { return scorer_.windows_emitted(); }
  const MonitorPolicy& policy() const { return policy_; }

  /// Serializes scorer + debounce state: the per-customer record of a
  /// fleet snapshot, which the serving layer's state store loads and
  /// continues bit-identically (same alerts for the same future stream).
  /// Options and policy are not written; the caller persists them.
  void SaveState(BinaryWriter* writer) const;

 private:
  StabilityMonitor(OnlineStabilityScorer scorer, MonitorPolicy policy)
      : scorer_(std::move(scorer)), policy_(policy) {}

  OnlineStabilityScorer scorer_;
  MonitorPolicy policy_;
  State state_;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_MONITOR_H_
