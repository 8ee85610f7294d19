#ifndef CHURNLAB_CORE_CUSTOMER_STATE_H_
#define CHURNLAB_CORE_CUSTOMER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "core/window.h"
#include "retail/types.h"

namespace churnlab {
namespace core {

/// The fixed-size streaming state of one customer. These member
/// initializers are the only definition of a fresh customer.
struct CustomerScalars {
  // SignificanceTracker: the current window count k; the number of symbols
  // with c > 0; sum_p alpha^(2c(p) - k), maintained while the clamp cannot
  // bite (stale and unused afterwards); and the kEwma running total,
  // T_{k+1} = lambda * T_k + (1 - lambda) * |u_k|.
  int32_t windows_seen = 0;
  uint32_t num_seen = 0;
  double incremental_total = 0.0;
  double ewma_total = 0.0;
  // OnlineStabilityScorer: the window being accumulated and the last day
  // observed (-1 before the first observation).
  int32_t current_window = 0;
  retail::Day last_observed_day = -1;
  // StabilityMonitor debounce: the last closed window's stability, whether
  // one has closed (0 or 1), and the low-stability streak.
  double last_stability = 1.0;
  uint8_t has_previous = 0;
  int32_t low_streak = 0;
};

/// One variable-size array carved from a BlockArena. `size` is the logical
/// element count; `capacity_bytes` is the arena size class and must be
/// passed back verbatim on release. 32-bit fields keep the handle (and the
/// 5-handle CustomerBlocks) small; per-customer blocks stay far below
/// 4 GiB because ingest and snapshot load cap symbols at
/// kernel::kMaxSymbolSpace.
struct BlockHandle {
  void* data = nullptr;
  uint32_t size = 0;
  uint32_t capacity_bytes = 0;

  template <typename T>
  std::span<T> Span() const {
    return {static_cast<T*>(data), size};
  }
};

/// The five growable arrays of one customer, all arena-backed.
struct CustomerBlocks {
  /// int32_t per symbol: c(k), the windows containing it (0 = never seen).
  BlockHandle contain_counts;
  /// uint32_t per contain count c >= 1: the symbols with that count. Drives
  /// the exact clamped-regime total. kAlphaPower only.
  BlockHandle contain_histogram;
  /// kEwma, per symbol: lazily-decayed scores. The score of symbol s at
  /// window k is ewma_values[s] * lambda^(k - ewma_stamps[s]), so a window
  /// advance only touches present symbols.
  BlockHandle ewma_values;  // double
  BlockHandle ewma_stamps;  // int32_t
  /// Symbol: the in-progress window's symbols, sorted and deduplicated.
  BlockHandle current_symbols;

  size_t CapacityBytes() const {
    return size_t{contain_counts.capacity_bytes} +
           contain_histogram.capacity_bytes + ewma_values.capacity_bytes +
           ewma_stamps.capacity_bytes + current_symbols.capacity_bytes;
  }
};

/// \brief What the kernels of core/state_kernel.h run over: references to
/// one customer's scalars and blocks, plus the arena the blocks grow in.
///
/// SignificanceTracker builds it from its own CustomerScalars; the serving
/// layer's store builds it from its per-shard scalar columns at a slot, so
/// one compiled kernel serves both. A const view still writes through its
/// references.
struct CustomerState {
  int32_t& windows_seen;
  uint32_t& num_seen;
  double& incremental_total;
  double& ewma_total;
  int32_t& current_window;
  retail::Day& last_observed_day;
  double& last_stability;
  uint8_t& has_previous;
  int32_t& low_streak;
  CustomerBlocks& blocks;
  BlockArena& arena;
};

}  // namespace core
}  // namespace churnlab

#endif  // CHURNLAB_CORE_CUSTOMER_STATE_H_
