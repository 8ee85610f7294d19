#include "serve/state_store.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <utility>

#include "common/arena.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "core/pow_cache.h"
#include "core/state_kernel.h"

namespace churnlab {
namespace serve {

namespace {

// ---------------------------------------------------------------------------
// Customer storage: SoA scalar columns + arena-backed variable-size blocks.
// ---------------------------------------------------------------------------

/// One variable-size array carved from the shard arena. `size` is the
/// logical element count; `capacity_bytes` is the arena size class and must
/// be passed back verbatim on release. 32-bit fields keep the handle (and
/// the 5-handle BlockSet) small; per-customer blocks are bounded far below
/// 4 GiB by the snapshot-load symbol caps.
struct BlockHandle {
  void* data = nullptr;
  uint32_t size = 0;
  uint32_t capacity_bytes = 0;

  template <typename T>
  std::span<T> Span() const {
    return {static_cast<T*>(data), size};
  }
};

/// The five growable arrays of one customer.
struct BlockSet {
  BlockHandle contain_counts;     // int32_t
  BlockHandle contain_histogram;  // uint32_t
  BlockHandle ewma_values;        // double
  BlockHandle ewma_stamps;        // int32_t
  BlockHandle current_symbols;    // core::Symbol

  size_t CapacityBytes() const {
    return size_t{contain_counts.capacity_bytes} +
           contain_histogram.capacity_bytes + ewma_values.capacity_bytes +
           ewma_stamps.capacity_bytes + current_symbols.capacity_bytes;
  }
};

/// Ensures `h` can hold `n` elements of T, reallocating from the arena (the
/// old block goes back to its size-class freelist). Leaves h->size alone.
template <typename T>
void EnsureBlockCapacity(BlockArena* arena, BlockHandle* h, size_t n) {
  const size_t min_bytes = n * sizeof(T);
  if (min_bytes <= h->capacity_bytes) return;
  size_t capacity = 0;
  void* fresh = arena->Allocate(min_bytes, &capacity);
  if (h->size > 0) {
    std::memcpy(fresh, h->data, size_t{h->size} * sizeof(T));
  }
  arena->Release(h->data, h->capacity_bytes);
  h->data = fresh;
  h->capacity_bytes = static_cast<uint32_t>(capacity);
}

/// Grows the logical size to `n`, zero-filling [old_size, n) — the same
/// contract as resizing a value-initialized std::vector.
template <typename T>
std::span<T> GrowBlock(BlockArena* arena, BlockHandle* h, size_t n) {
  EnsureBlockCapacity<T>(arena, h, n);
  if (n > h->size) {
    std::memset(static_cast<T*>(h->data) + h->size, 0,
                (n - h->size) * sizeof(T));
    h->size = static_cast<uint32_t>(n);
  }
  return h->Span<T>();
}

/// Parallel scalar columns, one entry per customer slot.
struct CompactColumns {
  std::vector<retail::CustomerId> customer;
  // Tracker scalars.
  std::vector<int32_t> windows_seen;
  std::vector<uint32_t> num_seen;
  std::vector<double> incremental_total;
  std::vector<double> ewma_total;
  // Scorer scalars.
  std::vector<int32_t> current_window;
  std::vector<retail::Day> last_observed_day;
  // Monitor debounce scalars.
  std::vector<double> last_stability;
  std::vector<uint8_t> has_previous;
  std::vector<int32_t> low_streak;

  size_t size() const { return customer.size(); }

  template <typename Fn>
  void ForEachColumn(Fn&& fn) {
    fn(customer);
    fn(windows_seen);
    fn(num_seen);
    fn(incremental_total);
    fn(ewma_total);
    fn(current_window);
    fn(last_observed_day);
    fn(last_stability);
    fn(has_previous);
    fn(low_streak);
  }

  template <typename Fn>
  void ForEachColumn(Fn&& fn) const {
    const_cast<CompactColumns*>(this)->ForEachColumn(
        [&fn](auto& column) { fn(std::as_const(column)); });
  }

  void Reserve(size_t n) {
    ForEachColumn([n](auto& column) { column.reserve(n); });
  }

  /// Freshly-constructed per-customer defaults, matching the member
  /// initializers of StabilityMonitor's nested State structs.
  void AppendDefault(retail::CustomerId id) {
    customer.push_back(id);
    windows_seen.push_back(0);
    num_seen.push_back(0);
    incremental_total.push_back(0.0);
    ewma_total.push_back(0.0);
    current_window.push_back(0);
    last_observed_day.push_back(-1);
    last_stability.push_back(1.0);
    has_previous.push_back(0);
    low_streak.push_back(0);
  }

  /// Truncates every column back to `n` entries. Exception-rollback path: a
  /// push_back partway through AppendDefault leaves the columns uneven.
  void Rollback(size_t n) {
    ForEachColumn([n](auto& column) {
      if (column.size() > n) column.resize(n);
    });
  }

  size_t CapacityBytes() const {
    size_t total = 0;
    ForEachColumn([&total](const auto& column) {
      total += column.capacity() * sizeof(column[0]);
    });
    return total;
  }
};

/// Sum of one slot's scalar column entries, for per-customer accounting.
constexpr size_t kCompactScalarBytesPerSlot =
    sizeof(retail::CustomerId) + 3 * sizeof(int32_t) + sizeof(uint32_t) +
    3 * sizeof(double) + sizeof(retail::Day) + sizeof(uint8_t);

struct CompactStorage {
  CompactColumns cols;
  std::vector<BlockSet> blocks;
  BlockArena arena;
};

// Lightweight views satisfying the state concepts of core/state_kernel.h
// over CompactStorage. The kernels they instantiate are the very same that
// run inside StabilityMonitor, which is what keeps a stored customer's
// alerts and snapshot bytes identical to a StabilityMonitor's.

class CompactTrackerRef {
 public:
  CompactTrackerRef(CompactStorage* s, size_t slot) : s_(s), slot_(slot) {}

  int32_t& WindowsSeen() { return s_->cols.windows_seen[slot_]; }
  uint32_t& NumSeen() { return s_->cols.num_seen[slot_]; }
  double& IncrementalTotal() { return s_->cols.incremental_total[slot_]; }
  double& EwmaTotal() { return s_->cols.ewma_total[slot_]; }
  std::span<int32_t> ContainCounts() {
    return blocks().contain_counts.Span<int32_t>();
  }
  std::span<uint32_t> ContainHistogram() {
    return blocks().contain_histogram.Span<uint32_t>();
  }
  std::span<double> EwmaValues() {
    return blocks().ewma_values.Span<double>();
  }
  std::span<int32_t> EwmaStamps() {
    return blocks().ewma_stamps.Span<int32_t>();
  }
  std::span<int32_t> GrowContainCounts(size_t n) {
    return GrowBlock<int32_t>(&s_->arena, &blocks().contain_counts, n);
  }
  std::span<uint32_t> GrowContainHistogram(size_t n) {
    return GrowBlock<uint32_t>(&s_->arena, &blocks().contain_histogram, n);
  }
  void GrowEwma(size_t n) {
    GrowBlock<double>(&s_->arena, &blocks().ewma_values, n);
    GrowBlock<int32_t>(&s_->arena, &blocks().ewma_stamps, n);
  }
  void ClearTracker() {
    WindowsSeen() = 0;
    NumSeen() = 0;
    IncrementalTotal() = 0.0;
    EwmaTotal() = 0.0;
    // Blocks keep their capacity (GrowBlock zero-fills on regrowth).
    BlockSet& b = blocks();
    b.contain_counts.size = 0;
    b.contain_histogram.size = 0;
    b.ewma_values.size = 0;
    b.ewma_stamps.size = 0;
  }

 private:
  BlockSet& blocks() { return s_->blocks[slot_]; }

  CompactStorage* s_;
  size_t slot_;
};

class CompactScorerRef {
 public:
  CompactScorerRef(CompactStorage* s, size_t slot) : s_(s), slot_(slot) {}

  std::span<const core::Symbol> CurrentSymbols() const {
    return s_->blocks[slot_].current_symbols.Span<const core::Symbol>();
  }
  void InsertCurrentSymbol(size_t pos, core::Symbol symbol) {
    BlockHandle& h = s_->blocks[slot_].current_symbols;
    const size_t old_size = h.size;
    EnsureBlockCapacity<core::Symbol>(&s_->arena, &h, old_size + 1);
    auto* data = static_cast<core::Symbol*>(h.data);
    std::memmove(data + pos + 1, data + pos,
                 (old_size - pos) * sizeof(core::Symbol));
    data[pos] = symbol;
    h.size = static_cast<uint32_t>(old_size + 1);
  }
  void AppendCurrentSymbol(core::Symbol symbol) {
    BlockHandle& h = s_->blocks[slot_].current_symbols;
    EnsureBlockCapacity<core::Symbol>(&s_->arena, &h, size_t{h.size} + 1);
    static_cast<core::Symbol*>(h.data)[h.size] = symbol;
    ++h.size;
  }
  void ReserveCurrentSymbols(size_t n) {
    EnsureBlockCapacity<core::Symbol>(&s_->arena,
                                      &s_->blocks[slot_].current_symbols, n);
  }
  void ClearCurrentSymbols() { s_->blocks[slot_].current_symbols.size = 0; }
  int32_t& CurrentWindow() { return s_->cols.current_window[slot_]; }
  retail::Day& LastObservedDay() {
    return s_->cols.last_observed_day[slot_];
  }

 private:
  CompactStorage* s_;
  size_t slot_;
};

class CompactMonitorRef {
 public:
  CompactMonitorRef(CompactStorage* s, size_t slot) : s_(s), slot_(slot) {}

  double& LastStability() { return s_->cols.last_stability[slot_]; }
  uint8_t& HasPrevious() { return s_->cols.has_previous[slot_]; }
  int32_t& LowStreak() { return s_->cols.low_streak[slot_]; }

 private:
  CompactStorage* s_;
  size_t slot_;
};

/// Estimated footprint of the id -> slot index (nodes + bucket array).
size_t IndexMemoryUsage(
    const std::unordered_map<retail::CustomerId, uint32_t>& index) {
  return index.bucket_count() * sizeof(void*) +
         index.size() *
             (sizeof(std::pair<const retail::CustomerId, uint32_t>) +
              2 * sizeof(void*));
}

}  // namespace

/// One shard. Heap-allocated (the mutex is immovable) so the store itself
/// stays movable, which Result<CustomerStateStore> requires.
struct Shard {
  explicit Shard(const StateStoreOptions& options)
      : pows(options.scorer.significance.alpha,
             options.scorer.significance.max_abs_exponent,
             options.scorer.significance.ewma_lambda) {}

  mutable std::mutex mutex;
  std::unordered_map<retail::CustomerId, uint32_t> index;
  /// SoA columns + arena blocks, one slot per customer in creation order.
  CompactStorage compact;
  /// Interned power tables shared by every customer in the shard. Guarded
  /// by `mutex` like the rest.
  core::PowCache pows;
};

CustomerStateStore::CustomerStateStore(
    StateStoreOptions options, std::vector<std::unique_ptr<Shard>> shards)
    : options_(std::move(options)), shards_(std::move(shards)) {}

CustomerStateStore::~CustomerStateStore() = default;
CustomerStateStore::CustomerStateStore(CustomerStateStore&&) noexcept =
    default;
CustomerStateStore& CustomerStateStore::operator=(
    CustomerStateStore&&) noexcept = default;

Result<CustomerStateStore> CustomerStateStore::Make(
    StateStoreOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  CHURNLAB_RETURN_NOT_OK(
      core::StabilityMonitor::Make(options.scorer, options.policy).status());
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(options.num_shards);
  for (size_t i = 0; i < options.num_shards; ++i) {
    shards.push_back(std::make_unique<Shard>(options));
  }
  return CustomerStateStore(std::move(options), std::move(shards));
}

std::mutex& CustomerStateStore::ShardMutex(size_t shard) const {
  return shards_[shard]->mutex;
}

size_t CustomerStateStore::ShardCustomers(size_t shard) const {
  std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
  return shards_[shard]->compact.cols.size();
}

size_t CustomerStateStore::NumCustomers() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->compact.cols.size();
  }
  return total;
}

// --------------------------------------------------------------------------
// CustomerRef
// --------------------------------------------------------------------------

retail::CustomerId CustomerStateStore::CustomerRef::customer() const {
  return shard_->compact.cols.customer[slot_];
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::Observe(
    retail::Day day, const std::vector<core::Symbol>& symbols) {
  CompactTrackerRef ts(&shard_->compact, slot_);
  CompactScorerRef ss(&shard_->compact, slot_);
  CompactMonitorRef ms(&shard_->compact, slot_);
  return core::kernel::MonitorObserve(
      ts, ss, ms, store_->options_.scorer, store_->options_.policy,
      shard_->pows, day, std::span<const core::Symbol>(symbols));
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::AdvanceTo(retail::Day day) {
  CompactTrackerRef ts(&shard_->compact, slot_);
  CompactScorerRef ss(&shard_->compact, slot_);
  CompactMonitorRef ms(&shard_->compact, slot_);
  return core::kernel::MonitorAdvanceTo(ts, ss, ms, store_->options_.scorer,
                                        store_->options_.policy,
                                        shard_->pows, day);
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::Finish() {
  CompactTrackerRef ts(&shard_->compact, slot_);
  CompactScorerRef ss(&shard_->compact, slot_);
  CompactMonitorRef ms(&shard_->compact, slot_);
  return core::kernel::MonitorFinish(ts, ss, ms, store_->options_.scorer,
                                     store_->options_.policy, shard_->pows);
}

double CustomerStateStore::CustomerRef::last_stability() const {
  return shard_->compact.cols.last_stability[slot_];
}

size_t CustomerStateStore::CustomerRef::MemoryUsage() const {
  return kCompactScalarBytesPerSlot + sizeof(BlockSet) +
         shard_->compact.blocks[slot_].CapacityBytes();
}

// --------------------------------------------------------------------------
// ShardAccessor
// --------------------------------------------------------------------------

CustomerStateStore::CustomerRef
CustomerStateStore::ShardAccessor::GetOrCreate(retail::CustomerId customer) {
  Shard& shard = *store_->shards_[shard_index_];
  const auto it = shard.index.find(customer);
  if (it != shard.index.end()) {
    return CustomerRef(store_, &shard, it->second);
  }
  // First touch. Storage is appended first and the index entry published
  // last, with full rollback if any step throws (column push_back, index
  // rehash), so the shard never ends up with an index entry pointing at a
  // slot that was never built.
  static Failpoint* const create_failpoint =
      FailpointRegistry::Global().Get("serve.state.create");
  const size_t slot = shard.compact.cols.size();
  try {
    if (create_failpoint->armed()) {
      // Creation has no Status channel, so the *error* action surfaces as
      // FailpointException too (Evaluate throws for *throw* on its own).
      if (!create_failpoint->Evaluate(customer).ok()) {
        throw FailpointException("serve.state.create");
      }
    }
    shard.compact.cols.AppendDefault(customer);
    shard.compact.blocks.emplace_back();
    shard.index.emplace(customer, static_cast<uint32_t>(slot));
  } catch (...) {
    shard.compact.cols.Rollback(slot);
    if (shard.compact.blocks.size() > slot) shard.compact.blocks.pop_back();
    shard.index.erase(customer);
    throw;
  }
  return CustomerRef(store_, &shard, slot);
}

Result<CustomerStateStore::CustomerRef>
CustomerStateStore::ShardAccessor::Find(retail::CustomerId customer) {
  Shard& shard = *store_->shards_[shard_index_];
  const auto it = shard.index.find(customer);
  if (it == shard.index.end()) {
    return Status::NotFound("customer " + std::to_string(customer) +
                            " is not held by the fleet");
  }
  return CustomerRef(store_, &shard, it->second);
}

size_t CustomerStateStore::ShardAccessor::size() const {
  return store_->shards_[shard_index_]->compact.cols.size();
}

retail::CustomerId CustomerStateStore::ShardAccessor::CustomerAt(
    size_t slot) const {
  return store_->shards_[shard_index_]->compact.cols.customer[slot];
}

CustomerStateStore::CustomerRef CustomerStateStore::ShardAccessor::At(
    size_t slot) {
  return CustomerRef(store_, store_->shards_[shard_index_].get(), slot);
}

// --------------------------------------------------------------------------
// Snapshot frames + accounting
// --------------------------------------------------------------------------

void CustomerStateStore::SaveShardState(size_t shard,
                                        BinaryWriter* writer) const {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  writer->WriteVarint(s.compact.cols.size());
  for (size_t slot = 0; slot < s.compact.cols.size(); ++slot) {
    writer->WriteVarint(s.compact.cols.customer[slot]);
    CompactTrackerRef ts(&s.compact, slot);
    CompactScorerRef ss(&s.compact, slot);
    CompactMonitorRef ms(&s.compact, slot);
    core::kernel::MonitorSaveState(ts, ss, ms, writer);
  }
}

Status CustomerStateStore::LoadShardState(size_t shard,
                                          BinaryReader* reader) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  // All-or-nothing: parse into scratch storage and swap it in only once the
  // whole frame decoded, so a corrupt record cannot leave the shard
  // half-replaced.
  std::unordered_map<retail::CustomerId, uint32_t> index;
  CompactStorage compact;
  CHURNLAB_ASSIGN_OR_RETURN(const uint64_t count, reader->ReadVarint());
  // The count is an untrusted length prefix: every customer needs at least
  // one byte of payload, so a count beyond the remaining bytes is
  // corruption — reject it before sizing any allocation from it.
  if (count > reader->remaining()) {
    return Status::InvalidArgument(
        "snapshot shard customer count (" + std::to_string(count) +
        ") exceeds remaining snapshot bytes (" +
        std::to_string(reader->remaining()) + ")");
  }
  index.reserve(count);
  compact.cols.Reserve(count);
  compact.blocks.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    CHURNLAB_ASSIGN_OR_RETURN(const uint64_t id, reader->ReadVarint());
    if (id >= retail::kInvalidCustomer) {
      return Status::IOError("snapshot shard holds an invalid customer id");
    }
    const auto customer = static_cast<retail::CustomerId>(id);
    if (ShardOf(customer) != shard) {
      return Status::IOError(
          "snapshot customer hashed to a different shard; the snapshot was "
          "written with a different shard count or is corrupted");
    }
    if (!index.try_emplace(customer, static_cast<uint32_t>(i)).second) {
      return Status::IOError("snapshot shard repeats a customer id");
    }
    compact.cols.AppendDefault(customer);
    compact.blocks.emplace_back();
    CompactTrackerRef ts(&compact, i);
    CompactScorerRef ss(&compact, i);
    CompactMonitorRef ms(&compact, i);
    CHURNLAB_RETURN_NOT_OK(
        core::kernel::MonitorLoadState(ts, ss, ms, options_.policy, reader));
  }
  s.index = std::move(index);
  s.compact = std::move(compact);
  return Status::OK();
}

StateMemoryStats CustomerStateStore::ShardMemoryUsage(size_t shard) const {
  const Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  StateMemoryStats stats;
  stats.index_bytes = IndexMemoryUsage(s.index);
  stats.customers = s.compact.cols.size();
  stats.scalar_bytes = s.compact.cols.CapacityBytes() +
                       s.compact.blocks.capacity() * sizeof(BlockSet);
  stats.block_bytes = s.compact.arena.bytes_in_use();
  stats.arena_reserved_bytes = s.compact.arena.bytes_reserved();
  stats.shared_bytes = s.pows.MemoryUsage();
  stats.total_bytes =
      stats.scalar_bytes + stats.index_bytes + stats.shared_bytes +
      std::max(stats.block_bytes, stats.arena_reserved_bytes);
  return stats;
}

StateMemoryStats CustomerStateStore::MemoryUsage() const {
  StateMemoryStats total;
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    total += ShardMemoryUsage(shard);
  }
  return total;
}

}  // namespace serve
}  // namespace churnlab
