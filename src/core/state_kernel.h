#ifndef CHURNLAB_CORE_STATE_KERNEL_H_
#define CHURNLAB_CORE_STATE_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "core/customer_state.h"
#include "core/monitor.h"
#include "core/pow_cache.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// \brief The streaming math of SignificanceTracker, OnlineStabilityScorer
/// and StabilityMonitor, written once over a CustomerState view.
///
/// The three classes run these functions over the tracker's own state; the
/// serving layer's state store runs them over its shard columns. One
/// compiled kernel is what makes a stored customer byte-identical to a
/// StabilityMonitor fed the same stream, in alerts and in saved state.
namespace kernel {

/// Symbols index per-customer arrays, so ingest and snapshot load both
/// reject a symbol at or above 2^24, far beyond any retail taxonomy.
inline constexpr uint64_t kMaxSymbolSpace = uint64_t{1} << 24;
/// The contain histogram is indexed by per-symbol window counts, bounded by
/// windows_seen: 2^20 windows is centuries of daily windows.
inline constexpr uint64_t kMaxWindowsSeen = uint64_t{1} << 20;

// SignificanceTracker kernels (see significance.h for the math).

double SignificanceOf(const CustomerState& state,
                      const SignificanceOptions& options,
                      const PowCache& pows, Symbol symbol);
int32_t ContainCount(const CustomerState& state, Symbol symbol);
int32_t MissCount(const CustomerState& state, Symbol symbol);
double TotalSignificance(const CustomerState& state,
                         const SignificanceOptions& options,
                         const PowCache& pows);
/// `symbols` must be sorted; duplicate neighbours count once.
double PresentSignificance(const CustomerState& state,
                           const SignificanceOptions& options,
                           const PowCache& pows,
                           std::span<const Symbol> symbols);
/// Stability of window `window_index` with symbol set `symbols`, against
/// the significance table before the window is folded in.
StabilityPoint ScoreWindow(const CustomerState& state,
                           const SignificanceOptions& options,
                           const PowCache& pows, int32_t window_index,
                           std::span<const Symbol> symbols);
/// Folds one window's sorted symbol set into the counters.
void AdvanceWindow(const CustomerState& state,
                   const SignificanceOptions& options, const PowCache& pows,
                   std::span<const Symbol> window_symbols);

// OnlineStabilityScorer kernels (see online_scorer.h for the contract).

Result<std::vector<StabilityPoint>> ScorerAdvanceTo(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const PowCache& pows, retail::Day day);
Result<std::vector<StabilityPoint>> ScorerObserve(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const PowCache& pows, retail::Day day, std::span<const Symbol> symbols);
Result<StabilityPoint> ScorerFinish(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const PowCache& pows);

// StabilityMonitor kernels (see monitor.h for the policy semantics).

Result<std::vector<StabilityAlert>> MonitorObserve(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows, retail::Day day,
    std::span<const Symbol> symbols);
Result<std::vector<StabilityAlert>> MonitorAdvanceTo(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows, retail::Day day);
Result<std::vector<StabilityAlert>> MonitorFinish(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows);

/// Writes the per-customer record of a fleet snapshot: tracker counters,
/// then the in-progress window and stream position, then the monitor's
/// debounce fields. Options and policy are not written.
void MonitorSaveState(const CustomerState& state, BinaryWriter* writer);
/// Reads a record written by MonitorSaveState into a fresh customer.
Status MonitorLoadState(const CustomerState& state,
                        const MonitorPolicy& policy, BinaryReader* reader);

}  // namespace kernel
}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_STATE_KERNEL_H_
