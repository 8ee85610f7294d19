#include "serve/state_store.h"

#include <algorithm>
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

  /// Appends a fresh customer: the member initializers of CustomerScalars.
  void AppendDefault(retail::CustomerId id) {
    const core::CustomerScalars fresh;
    customer.push_back(id);
    windows_seen.push_back(fresh.windows_seen);
    num_seen.push_back(fresh.num_seen);
    incremental_total.push_back(fresh.incremental_total);
    ewma_total.push_back(fresh.ewma_total);
    current_window.push_back(fresh.current_window);
    last_observed_day.push_back(fresh.last_observed_day);
    last_stability.push_back(fresh.last_stability);
    has_previous.push_back(fresh.has_previous);
    low_streak.push_back(fresh.low_streak);
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
  std::vector<core::CustomerBlocks> blocks;
  BlockArena arena;

  /// The kernels' view of the customer at `slot`: its column entries, its
  /// blocks and the shard arena. Valid until the next append.
  core::CustomerState At(size_t slot) {
    return {.windows_seen = cols.windows_seen[slot],
            .num_seen = cols.num_seen[slot],
            .incremental_total = cols.incremental_total[slot],
            .ewma_total = cols.ewma_total[slot],
            .current_window = cols.current_window[slot],
            .last_observed_day = cols.last_observed_day[slot],
            .last_stability = cols.last_stability[slot],
            .has_previous = cols.has_previous[slot],
            .low_streak = cols.low_streak[slot],
            .blocks = blocks[slot],
            .arena = arena};
  }
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
  return core::kernel::MonitorObserve(
      shard_->compact.At(slot_), store_->options_.scorer,
      store_->options_.policy, shard_->pows, day, symbols);
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::AdvanceTo(retail::Day day) {
  return core::kernel::MonitorAdvanceTo(
      shard_->compact.At(slot_), store_->options_.scorer,
      store_->options_.policy, shard_->pows, day);
}

Result<std::vector<core::StabilityAlert>>
CustomerStateStore::CustomerRef::Finish() {
  return core::kernel::MonitorFinish(shard_->compact.At(slot_),
                                     store_->options_.scorer,
                                     store_->options_.policy, shard_->pows);
}

double CustomerStateStore::CustomerRef::last_stability() const {
  return shard_->compact.cols.last_stability[slot_];
}

size_t CustomerStateStore::CustomerRef::MemoryUsage() const {
  return kCompactScalarBytesPerSlot + sizeof(core::CustomerBlocks) +
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
    core::kernel::MonitorSaveState(s.compact.At(slot), writer);
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
    CHURNLAB_RETURN_NOT_OK(core::kernel::MonitorLoadState(
        compact.At(i), options_.policy, reader));
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
  stats.scalar_bytes =
      s.compact.cols.CapacityBytes() +
      s.compact.blocks.capacity() * sizeof(core::CustomerBlocks);
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
