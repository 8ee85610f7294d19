#include "core/state_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>

#include "common/macros.h"
#include "obs/metrics.h"

namespace churnlab {
namespace core {
namespace kernel {

namespace {

// ---------------------------------------------------------------------------
// Observability: one metric family whichever storage the kernels run over.
// ---------------------------------------------------------------------------

obs::Counter* ObservationsCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.online_observations");
  return counter;
}

obs::Histogram* ObserveLatencyHistogram() {
  static obs::Histogram* const histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "churnlab.core.observe_latency_us",
          obs::HistogramOptions::ExponentialLatency());
  return histogram;
}

// Process-wide anchor for the windows/sec throughput gauge: nanoseconds of
// the first window emission. Races on the initial store are benign (both
// writers store nearly identical timestamps).
std::atomic<uint64_t> g_first_emit_ns{0};

void RecordEmittedWindows(size_t count) {
  if (count == 0) return;
  static obs::Counter* const windows_emitted =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.online_windows_emitted");
  static obs::Gauge* const windows_per_sec =
      obs::MetricsRegistry::Global().GetGauge(
          "churnlab.core.online_windows_per_sec");
  windows_emitted->Increment(count);
  const uint64_t now_ns = obs::MonotonicNanos();
  uint64_t first = g_first_emit_ns.load(std::memory_order_relaxed);
  if (first == 0) {
    g_first_emit_ns.compare_exchange_strong(first, now_ns,
                                            std::memory_order_relaxed);
    first = g_first_emit_ns.load(std::memory_order_relaxed);
  }
  const double elapsed_s = static_cast<double>(now_ns - first) * 1e-9;
  if (elapsed_s > 0.0) {
    windows_per_sec->Set(static_cast<double>(windows_emitted->Value()) /
                         elapsed_s);
  }
}

void RecordAlert(StabilityAlert::Kind kind) {
  static obs::Counter* const low_stability =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.alerts_low_stability");
  static obs::Counter* const sharp_drop =
      obs::MetricsRegistry::Global().GetCounter(
          "churnlab.core.alerts_sharp_drop");
  (kind == StabilityAlert::Kind::kLowStability ? low_stability : sharp_drop)
      ->Increment();
}

// ---------------------------------------------------------------------------
// Arena blocks.
// ---------------------------------------------------------------------------

/// Ensures `h` can hold `n` elements of T, reallocating from the arena (the
/// old block goes back to its size-class freelist). Leaves h->size alone.
template <typename T>
void EnsureBlockCapacity(BlockArena& arena, BlockHandle* h, size_t n) {
  const size_t min_bytes = n * sizeof(T);
  if (min_bytes <= h->capacity_bytes) return;
  size_t capacity = 0;
  void* fresh = arena.Allocate(min_bytes, &capacity);
  if (h->size > 0) {
    std::memcpy(fresh, h->data, size_t{h->size} * sizeof(T));
  }
  arena.Release(h->data, h->capacity_bytes);
  h->data = fresh;
  h->capacity_bytes = static_cast<uint32_t>(capacity);
}

/// Grows the logical size to `n`, zero-filling [old_size, n) — the same
/// contract as resizing a value-initialized std::vector.
template <typename T>
std::span<T> GrowBlock(BlockArena& arena, BlockHandle* h, size_t n) {
  EnsureBlockCapacity<T>(arena, h, n);
  if (n > h->size) {
    std::memset(static_cast<T*>(h->data) + h->size, 0,
                (n - h->size) * sizeof(T));
    h->size = static_cast<uint32_t>(n);
  }
  return h->Span<T>();
}

void GrowEwma(const CustomerState& state, size_t n) {
  GrowBlock<double>(state.arena, &state.blocks.ewma_values, n);
  GrowBlock<int32_t>(state.arena, &state.blocks.ewma_stamps, n);
}

/// Inserts `symbol` at `pos` of the in-progress window's sorted symbols.
void InsertCurrentSymbol(const CustomerState& state, size_t pos,
                         Symbol symbol) {
  BlockHandle& h = state.blocks.current_symbols;
  const size_t old_size = h.size;
  EnsureBlockCapacity<Symbol>(state.arena, &h, old_size + 1);
  auto* data = static_cast<Symbol*>(h.data);
  std::memmove(data + pos + 1, data + pos, (old_size - pos) * sizeof(Symbol));
  data[pos] = symbol;
  h.size = static_cast<uint32_t>(old_size + 1);
}

// ---------------------------------------------------------------------------
// SignificanceTracker internals.
// ---------------------------------------------------------------------------

/// True while no per-symbol exponent can exceed the clamp, i.e. while the
/// incremental total is exact.
bool IncrementalTotalExact(int32_t windows_seen,
                           const SignificanceOptions& options) {
  return static_cast<double>(windows_seen) <= options.max_abs_exponent;
}

/// Exact total in the clamped regime: sums ClampedPow per distinct contain
/// count, weighted by the histogram.
double HistogramTotal(const CustomerState& state, const PowCache& pows) {
  const std::span<const uint32_t> histogram =
      state.blocks.contain_histogram.Span<const uint32_t>();
  const int32_t windows_seen = state.windows_seen;
  double total = 0.0;
  for (size_t count = 1; count < histogram.size(); ++count) {
    const uint32_t symbols = histogram[count];
    if (symbols == 0) continue;
    total += static_cast<double>(symbols) *
             pows.PowAlpha(2 * static_cast<int64_t>(count) - windows_seen);
  }
  return total;
}

void AdvanceEwma(const CustomerState& state,
                 const SignificanceOptions& options, const PowCache& pows,
                 std::span<const Symbol> window_symbols) {
  const double lambda = options.ewma_lambda;
  const double credit = 1.0 - lambda;
  const int32_t next_window = state.windows_seen + 1;
  size_t present_count = 0;
  std::span<double> values = state.blocks.ewma_values.Span<double>();
  std::span<int32_t> stamps = state.blocks.ewma_stamps.Span<int32_t>();
  const Symbol* previous = nullptr;
  for (const Symbol& symbol : window_symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    previous = &symbol;
    ++present_count;
    if (static_cast<size_t>(symbol) >= values.size()) {
      GrowEwma(state, static_cast<size_t>(symbol) + 1);
      values = state.blocks.ewma_values.Span<double>();
      stamps = state.blocks.ewma_stamps.Span<int32_t>();
    }
    // Settle the lazy decay up to the post-advance window, then credit.
    values[symbol] =
        values[symbol] * pows.PowLambda(next_window - stamps[symbol]) +
        credit;
    stamps[symbol] = next_window;
  }
  state.ewma_total = state.ewma_total * lambda +
                     credit * static_cast<double>(present_count);
}

/// Emits the current window and starts the next one.
StabilityPoint CloseCurrentWindow(const CustomerState& state,
                                  const SignificanceOptions& significance,
                                  const PowCache& pows) {
  const std::span<const Symbol> current =
      state.blocks.current_symbols.Span<const Symbol>();
  const StabilityPoint point =
      ScoreWindow(state, significance, pows, state.current_window, current);
  AdvanceWindow(state, significance, pows, current);
  state.blocks.current_symbols.size = 0;
  ++state.current_window;
  return point;
}

/// Closes every window before the one containing `day` into `emitted`.
/// A rejected day changes nothing.
Status AdvanceInto(const CustomerState& state,
                   const OnlineStabilityScorer::Options& options,
                   const PowCache& pows, retail::Day day,
                   std::vector<StabilityPoint>* emitted) {
  if (day < options.origin_day) {
    return Status::InvalidArgument("day precedes the window origin");
  }
  if (day < state.last_observed_day) {
    return Status::InvalidArgument(
        "stream is not chronological: day " + std::to_string(day) +
        " after day " + std::to_string(state.last_observed_day));
  }
  const int32_t target_window =
      (day - options.origin_day) / options.window_span_days;
  // A saved state with more windows would not load back.
  if (static_cast<uint64_t>(target_window) >= kMaxWindowsSeen) {
    return Status::InvalidArgument(
        "day " + std::to_string(day) + " falls in window " +
        std::to_string(target_window) + ", beyond the 2^20-window horizon");
  }
  state.last_observed_day = day;
  while (state.current_window < target_window) {
    emitted->push_back(CloseCurrentWindow(state, options.significance, pows));
  }
  RecordEmittedWindows(emitted->size());
  return Status::OK();
}

/// Feeds one observation, closing windows into `emitted`. A rejected
/// observation changes nothing.
Status ObserveInto(const CustomerState& state,
                   const OnlineStabilityScorer::Options& options,
                   const PowCache& pows, retail::Day day,
                   std::span<const Symbol> symbols,
                   std::vector<StabilityPoint>* emitted) {
  obs::ScopedLatency latency(ObserveLatencyHistogram());
  // A saved state holding such a symbol would not load back.
  for (const Symbol symbol : symbols) {
    if (symbol != kInvalidSymbol && symbol >= kMaxSymbolSpace) {
      return Status::InvalidArgument("symbol " + std::to_string(symbol) +
                                     " is beyond the 2^24-symbol space");
    }
  }
  CHURNLAB_RETURN_NOT_OK(AdvanceInto(state, options, pows, day, emitted));
  // Merge the observation into the current window's sorted union.
  const BlockHandle& current = state.blocks.current_symbols;
  for (const Symbol symbol : symbols) {
    if (symbol == kInvalidSymbol) continue;
    const Symbol* begin = static_cast<const Symbol*>(current.data);
    const Symbol* end = begin + current.size;
    const Symbol* it = std::lower_bound(begin, end, symbol);
    if (it == end || *it != symbol) {
      InsertCurrentSymbol(state, static_cast<size_t>(it - begin), symbol);
    }
  }
  ObservationsCounter()->Increment();
  return Status::OK();
}

std::vector<StabilityAlert> Evaluate(const CustomerState& state,
                                     const MonitorPolicy& policy,
                                     std::span<const StabilityPoint> points) {
  std::vector<StabilityAlert> alerts;
  for (const StabilityPoint& point : points) {
    const double drop =
        state.has_previous != 0 ? state.last_stability - point.stability
                                : 0.0;
    const bool in_warmup = point.window_index < policy.warmup_windows;

    if (!in_warmup && point.has_history) {
      if (point.stability <= policy.beta) {
        ++state.low_streak;
      } else {
        state.low_streak = 0;
      }
      if (state.low_streak == policy.consecutive_windows) {
        StabilityAlert alert;
        alert.kind = StabilityAlert::Kind::kLowStability;
        alert.window_index = point.window_index;
        alert.stability = point.stability;
        alert.drop = drop;
        RecordAlert(alert.kind);
        alerts.push_back(alert);
        // Re-arm only after recovery: keep the streak saturated so a long
        // low spell raises exactly one alert.
      }
      if (state.low_streak > policy.consecutive_windows) {
        state.low_streak = policy.consecutive_windows;  // saturate
      }
      if (policy.drop_threshold <= 1.0 && state.has_previous != 0 &&
          drop > policy.drop_threshold) {
        StabilityAlert alert;
        alert.kind = StabilityAlert::Kind::kSharpDrop;
        alert.window_index = point.window_index;
        alert.stability = point.stability;
        alert.drop = drop;
        RecordAlert(alert.kind);
        alerts.push_back(alert);
      }
    }
    state.last_stability = point.stability;
    state.has_previous = 1;
  }
  return alerts;
}

// ---------------------------------------------------------------------------
// Snapshot record parts.
// ---------------------------------------------------------------------------

void SaveTracker(const CustomerState& state, BinaryWriter* writer) {
  writer->WriteVarint(static_cast<uint64_t>(state.windows_seen));
  // Sparse contain counts as (symbol delta, count) pairs, ascending symbol.
  writer->WriteVarint(static_cast<uint64_t>(state.num_seen));
  const std::span<const int32_t> counts =
      state.blocks.contain_counts.Span<const int32_t>();
  Symbol previous = 0;
  for (size_t symbol = 0; symbol < counts.size(); ++symbol) {
    const int32_t count = counts[symbol];
    if (count == 0) continue;
    writer->WriteVarint(static_cast<Symbol>(symbol) - previous);
    writer->WriteVarint(static_cast<uint64_t>(count));
    previous = static_cast<Symbol>(symbol);
  }
  writer->WriteDouble(state.incremental_total);
  // Sparse EWMA scores (value, stamp) keyed the same way. Empty for the
  // alpha-power kind.
  const std::span<const double> values =
      state.blocks.ewma_values.Span<const double>();
  const std::span<const int32_t> stamps =
      state.blocks.ewma_stamps.Span<const int32_t>();
  size_t num_ewma = 0;
  for (const double value : values) {
    if (value != 0.0) ++num_ewma;
  }
  writer->WriteVarint(num_ewma);
  previous = 0;
  for (size_t symbol = 0; symbol < values.size(); ++symbol) {
    if (values[symbol] == 0.0) continue;
    writer->WriteVarint(static_cast<Symbol>(symbol) - previous);
    writer->WriteDouble(values[symbol]);
    writer->WriteVarint(static_cast<uint64_t>(stamps[symbol]));
    previous = static_cast<Symbol>(symbol);
  }
  writer->WriteDouble(state.ewma_total);
}

Status LoadTracker(const CustomerState& state, BinaryReader* reader) {
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t windows_seen, reader->ReadVarint());
  if (windows_seen > kMaxWindowsSeen) {
    return Status::InvalidArgument(
        "significance state windows_seen is implausibly large");
  }
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_seen, reader->ReadVarint());
  state.windows_seen = static_cast<int32_t>(windows_seen);
  std::span<int32_t> counts = state.blocks.contain_counts.Span<int32_t>();
  std::span<uint32_t> histogram =
      state.blocks.contain_histogram.Span<uint32_t>();
  uint64_t symbol = 0;
  for (uint64_t i = 0; i < num_seen; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t delta, reader->ReadVarint());
    // The first pair carries the absolute symbol; later pairs are deltas
    // from the previous one (strictly positive by construction).
    symbol += delta;
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t count, reader->ReadVarint());
    if (symbol >= static_cast<uint64_t>(kInvalidSymbol) || count == 0 ||
        count > windows_seen) {
      return Status::OutOfRange("corrupt significance state entry");
    }
    if (symbol >= kMaxSymbolSpace) {
      return Status::InvalidArgument(
          "significance state symbol is implausibly large");
    }
    if (symbol >= counts.size()) {
      counts = GrowBlock<int32_t>(state.arena, &state.blocks.contain_counts,
                                  static_cast<size_t>(symbol) + 1);
    }
    counts[symbol] = static_cast<int32_t>(count);
    ++state.num_seen;
    if (count >= histogram.size()) {
      histogram =
          GrowBlock<uint32_t>(state.arena, &state.blocks.contain_histogram,
                              static_cast<size_t>(count) + 1);
    }
    ++histogram[count];
  }
  CHURNLAB_ASSIGN_OR_RETURN(state.incremental_total, reader->ReadDouble());

  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_ewma, reader->ReadVarint());
  std::span<double> values = state.blocks.ewma_values.Span<double>();
  std::span<int32_t> stamps = state.blocks.ewma_stamps.Span<int32_t>();
  symbol = 0;
  for (uint64_t i = 0; i < num_ewma; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t delta, reader->ReadVarint());
    symbol += delta;
    CHURNLAB_ASSIGN_OR_RETURN(const double value, reader->ReadDouble());
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t stamp, reader->ReadVarint());
    if (symbol >= static_cast<uint64_t>(kInvalidSymbol) ||
        stamp > windows_seen) {
      return Status::OutOfRange("corrupt EWMA state entry");
    }
    if (symbol >= kMaxSymbolSpace) {
      return Status::InvalidArgument(
          "EWMA state symbol is implausibly large");
    }
    if (symbol >= values.size()) {
      GrowEwma(state, static_cast<size_t>(symbol) + 1);
      values = state.blocks.ewma_values.Span<double>();
      stamps = state.blocks.ewma_stamps.Span<int32_t>();
    }
    values[symbol] = value;
    stamps[symbol] = static_cast<int32_t>(stamp);
  }
  CHURNLAB_ASSIGN_OR_RETURN(state.ewma_total, reader->ReadDouble());
  return Status::OK();
}

Status LoadScorer(const CustomerState& state, BinaryReader* reader) {
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t num_symbols, reader->ReadVarint());
  // Untrusted length prefix: each symbol takes at least one byte, so a
  // count beyond the remaining buffer is corruption — reject before
  // reserving storage sized from it.
  if (num_symbols > reader->remaining()) {
    return Status::InvalidArgument(
        "scorer symbol count exceeds remaining state bytes");
  }
  BlockHandle& current = state.blocks.current_symbols;
  EnsureBlockCapacity<Symbol>(state.arena, &current, num_symbols);
  uint64_t symbol = 0;
  for (uint64_t i = 0; i < num_symbols; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t delta, reader->ReadVarint());
    symbol += delta;
    if (symbol >= static_cast<uint64_t>(kInvalidSymbol)) {
      return Status::OutOfRange("corrupt scorer symbol set");
    }
    static_cast<Symbol*>(current.data)[current.size++] =
        static_cast<Symbol>(symbol);
  }
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t current_window,
                            reader->ReadSignedVarint());
  CHURNLAB_ASSIGN_OR_RETURN(const int64_t last_observed_day,
                            reader->ReadSignedVarint());
  if (current_window < 0 || current_window > INT32_MAX ||
      last_observed_day < -1 || last_observed_day > INT32_MAX) {
    return Status::OutOfRange("corrupt scorer stream position");
  }
  state.current_window = static_cast<int32_t>(current_window);
  state.last_observed_day = static_cast<retail::Day>(last_observed_day);
  return Status::OK();
}

Status LoadMonitorTail(const CustomerState& state,
                       const MonitorPolicy& policy, BinaryReader* reader) {
  CHURNLAB_ASSIGN_OR_RETURN(state.last_stability, reader->ReadDouble());
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t has_previous, reader->ReadVarint());
  if (has_previous > 1) {
    return Status::OutOfRange("corrupt monitor debounce state");
  }
  state.has_previous = has_previous == 1 ? 1 : 0;
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t low_streak, reader->ReadVarint());
  if (low_streak > static_cast<uint64_t>(policy.consecutive_windows)) {
    return Status::OutOfRange("corrupt monitor debounce state");
  }
  state.low_streak = static_cast<int32_t>(low_streak);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// SignificanceTracker kernels.
// ---------------------------------------------------------------------------

double SignificanceOf(const CustomerState& state,
                      const SignificanceOptions& options,
                      const PowCache& pows, Symbol symbol) {
  if (options.kind == SignificanceKind::kEwma) {
    const std::span<const double> values =
        state.blocks.ewma_values.Span<const double>();
    if (static_cast<size_t>(symbol) >= values.size()) return 0.0;
    const double value = values[symbol];
    if (value == 0.0) return 0.0;
    const int32_t stamp =
        state.blocks.ewma_stamps.Span<const int32_t>()[symbol];
    return value * pows.PowLambda(state.windows_seen - stamp);
  }
  const int32_t count = ContainCount(state, symbol);
  if (count == 0) return 0.0;
  if (options.alpha == 1.0) return 1.0;
  return pows.PowAlpha(2 * static_cast<int64_t>(count) - state.windows_seen);
}

int32_t ContainCount(const CustomerState& state, Symbol symbol) {
  const std::span<const int32_t> counts =
      state.blocks.contain_counts.Span<const int32_t>();
  if (static_cast<size_t>(symbol) >= counts.size()) return 0;
  return counts[symbol];
}

int32_t MissCount(const CustomerState& state, Symbol symbol) {
  const int32_t count = ContainCount(state, symbol);
  if (count == 0) return 0;
  return state.windows_seen - count;
}

double TotalSignificance(const CustomerState& state,
                         const SignificanceOptions& options,
                         const PowCache& pows) {
  if (options.kind == SignificanceKind::kEwma) return state.ewma_total;
  if (state.num_seen == 0) return 0.0;
  if (options.alpha == 1.0) return static_cast<double>(state.num_seen);
  if (IncrementalTotalExact(state.windows_seen, options)) {
    return state.incremental_total;
  }
  return HistogramTotal(state, pows);
}

double PresentSignificance(const CustomerState& state,
                           const SignificanceOptions& options,
                           const PowCache& pows,
                           std::span<const Symbol> symbols) {
  double present = 0.0;
  const Symbol* previous = nullptr;  // tolerate duplicate neighbours
  for (const Symbol& symbol : symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    present += SignificanceOf(state, options, pows, symbol);
    previous = &symbol;
  }
  return present;
}

StabilityPoint ScoreWindow(const CustomerState& state,
                           const SignificanceOptions& options,
                           const PowCache& pows, int32_t window_index,
                           std::span<const Symbol> symbols) {
  StabilityPoint point;
  point.window_index = window_index;
  point.total_significance = TotalSignificance(state, options, pows);
  point.present_significance =
      PresentSignificance(state, options, pows, symbols);
  if (point.total_significance > 0.0) {
    point.has_history = true;
    point.stability = point.present_significance / point.total_significance;
  } else {
    point.has_history = false;
    point.stability = 1.0;
  }
  return point;
}

void AdvanceWindow(const CustomerState& state,
                   const SignificanceOptions& options, const PowCache& pows,
                   std::span<const Symbol> window_symbols) {
  if (options.kind == SignificanceKind::kEwma) {
    AdvanceEwma(state, options, pows, window_symbols);
  }
  const int32_t windows_seen = state.windows_seen;
  // The incremental total is only maintained while it stays exact (and only
  // needed for the alpha-power kind with alpha != 1).
  const bool maintain_total =
      options.kind == SignificanceKind::kAlphaPower && options.alpha != 1.0 &&
      static_cast<double>(windows_seen) + 1.0 <= options.max_abs_exponent;
  double present = 0.0;
  size_t new_symbols = 0;
  std::span<int32_t> counts = state.blocks.contain_counts.Span<int32_t>();
  std::span<uint32_t> histogram =
      state.blocks.contain_histogram.Span<uint32_t>();
  // Input is sorted (Windower invariant); skip duplicate neighbours so a
  // malformed caller cannot make c(k) exceed the window count.
  const Symbol* previous = nullptr;
  for (const Symbol& symbol : window_symbols) {
    if (previous != nullptr && *previous == symbol) continue;
    previous = &symbol;
    if (static_cast<size_t>(symbol) >= counts.size()) {
      counts = GrowBlock<int32_t>(state.arena, &state.blocks.contain_counts,
                                  static_cast<size_t>(symbol) + 1);
    }
    int32_t& count = counts[symbol];
    if (count == 0) {
      ++new_symbols;
      ++state.num_seen;
    } else {
      if (maintain_total) {
        present +=
            pows.PowAlpha(2 * static_cast<int64_t>(count) - windows_seen);
      }
      --histogram[static_cast<size_t>(count)];
    }
    ++count;
    if (static_cast<size_t>(count) >= histogram.size()) {
      histogram =
          GrowBlock<uint32_t>(state.arena, &state.blocks.contain_histogram,
                              static_cast<size_t>(count) + 1);
    }
    ++histogram[static_cast<size_t>(count)];
  }
  if (maintain_total) {
    const double alpha = options.alpha;
    // T_{k+1} = (T_k + (alpha^2 - 1) * P_k) / alpha + n_new * alpha^(1-k).
    state.incremental_total =
        (state.incremental_total + (alpha * alpha - 1.0) * present) / alpha +
        static_cast<double>(new_symbols) * pows.PowAlpha(1 - windows_seen);
  }
  ++state.windows_seen;
}

// ---------------------------------------------------------------------------
// OnlineStabilityScorer kernels.
// ---------------------------------------------------------------------------

Result<std::vector<StabilityPoint>> ScorerAdvanceTo(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const PowCache& pows, retail::Day day) {
  std::vector<StabilityPoint> emitted;
  CHURNLAB_RETURN_NOT_OK(AdvanceInto(state, options, pows, day, &emitted));
  return emitted;
}

Result<std::vector<StabilityPoint>> ScorerObserve(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const PowCache& pows, retail::Day day, std::span<const Symbol> symbols) {
  std::vector<StabilityPoint> emitted;
  CHURNLAB_RETURN_NOT_OK(
      ObserveInto(state, options, pows, day, symbols, &emitted));
  return emitted;
}

Result<StabilityPoint> ScorerFinish(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const PowCache& pows) {
  if (state.last_observed_day < 0) {
    return Status::FailedPrecondition(
        "no observations were ever fed; window 0 would be vacuous");
  }
  // A saved state with more windows would not load back.
  if (static_cast<uint64_t>(state.current_window) >= kMaxWindowsSeen) {
    return Status::InvalidArgument(
        "closing window " + std::to_string(state.current_window) +
        " would pass the 2^20-window horizon");
  }
  // The next acceptable observation starts at the next window boundary.
  state.last_observed_day =
      std::max(state.last_observed_day,
               options.origin_day +
                   (state.current_window + 1) * options.window_span_days - 1);
  const StabilityPoint point =
      CloseCurrentWindow(state, options.significance, pows);
  RecordEmittedWindows(1);
  return point;
}

// ---------------------------------------------------------------------------
// StabilityMonitor kernels.
// ---------------------------------------------------------------------------

Result<std::vector<StabilityAlert>> MonitorObserve(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows, retail::Day day,
    std::span<const Symbol> symbols) {
  std::vector<StabilityPoint> points;
  CHURNLAB_RETURN_NOT_OK(
      ObserveInto(state, options, pows, day, symbols, &points));
  return Evaluate(state, policy, points);
}

Result<std::vector<StabilityAlert>> MonitorAdvanceTo(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows, retail::Day day) {
  std::vector<StabilityPoint> points;
  CHURNLAB_RETURN_NOT_OK(AdvanceInto(state, options, pows, day, &points));
  return Evaluate(state, policy, points);
}

Result<std::vector<StabilityAlert>> MonitorFinish(
    const CustomerState& state, const OnlineStabilityScorer::Options& options,
    const MonitorPolicy& policy, const PowCache& pows) {
  Result<StabilityPoint> point = ScorerFinish(state, options, pows);
  if (!point.ok()) {
    if (point.status().IsFailedPrecondition()) {
      // Never-fed monitor: nothing to flush, by contract a no-op.
      return std::vector<StabilityAlert>();
    }
    return point.status();
  }
  const StabilityPoint points[] = {*point};
  return Evaluate(state, policy, points);
}

void MonitorSaveState(const CustomerState& state, BinaryWriter* writer) {
  SaveTracker(state, writer);
  const std::span<const Symbol> current =
      state.blocks.current_symbols.Span<const Symbol>();
  writer->WriteVarint(current.size());
  Symbol previous = 0;
  for (const Symbol symbol : current) {  // sorted: delta-encode
    writer->WriteVarint(symbol - previous);
    previous = symbol;
  }
  writer->WriteSignedVarint(state.current_window);
  writer->WriteSignedVarint(state.last_observed_day);
  writer->WriteDouble(state.last_stability);
  writer->WriteVarint(state.has_previous != 0 ? 1 : 0);
  writer->WriteVarint(static_cast<uint64_t>(state.low_streak));
}

Status MonitorLoadState(const CustomerState& state,
                        const MonitorPolicy& policy, BinaryReader* reader) {
  CHURNLAB_RETURN_NOT_OK(LoadTracker(state, reader));
  CHURNLAB_RETURN_NOT_OK(LoadScorer(state, reader));
  return LoadMonitorTail(state, policy, reader);
}

}  // namespace kernel
}  // namespace core
}  // namespace churnlab
