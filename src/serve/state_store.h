#ifndef CHURNLAB_SERVE_STATE_STORE_H_
#define CHURNLAB_SERVE_STATE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "core/monitor.h"
#include "retail/types.h"

namespace churnlab {
namespace serve {

/// Stable 64-bit mix (the murmur3 finalizer). Used instead of std::hash so
/// shard assignment — and therefore snapshot layout and alert grouping — is
/// identical across runs, standard libraries, and platforms.
inline uint64_t StableHash(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

struct Shard;

struct StateStoreOptions {
  core::OnlineStabilityScorer::Options scorer;
  core::MonitorPolicy policy;
  /// Number of independent shards (>= 1). Each shard has its own mutex and
  /// dense customer columns; customers are assigned by
  /// StableHash(customer_id) % num_shards.
  size_t num_shards = 16;
};

/// Byte accounting for one shard, or — summed with operator+= — a whole
/// store/fleet. All figures are capacities actually held from the heap, not
/// logical sizes.
struct StateMemoryStats {
  size_t customers = 0;
  /// Fixed-size per-customer storage: SoA column capacity, block-handle
  /// table included.
  size_t scalar_bytes = 0;
  /// Live variable-size storage: arena blocks in use.
  size_t block_bytes = 0;
  /// Arena chunk bytes held from the OS (>= block_bytes; the difference is
  /// freelist + bump slack).
  size_t arena_reserved_bytes = 0;
  /// Estimated id -> slot hash index footprint.
  size_t index_bytes = 0;
  /// Per-shard shared tables (the interned power caches).
  size_t shared_bytes = 0;
  /// scalar + index + shared + max(block, arena_reserved): what the state
  /// actually costs, arena slack included.
  size_t total_bytes = 0;

  StateMemoryStats& operator+=(const StateMemoryStats& other) {
    customers += other.customers;
    scalar_bytes += other.scalar_bytes;
    block_bytes += other.block_bytes;
    arena_reserved_bytes += other.arena_reserved_bytes;
    index_bytes += other.index_bytes;
    shared_bytes += other.shared_bytes;
    total_bytes += other.total_bytes;
    return *this;
  }
};

/// \brief Sharded owner of per-customer streaming state.
///
/// Each customer is one logical StabilityMonitor (an OnlineStabilityScorer
/// plus alerting policy), physically stored as structure-of-arrays scalar
/// columns plus arena-backed blocks for the variable-size per-symbol
/// counters, with one shared power-table cache per shard. The kernels of
/// core/state_kernel.h run over that storage, the same code that runs
/// inside StabilityMonitor. Customers live in `num_shards` shards, each
/// with one mutex, an id -> slot index, and slot storage in creation
/// order. The ScoringFleet partitions batches by
/// shard and processes each shard sequentially under its lock, so two
/// receipts of one customer can never race.
///
/// Determinism: slot order is creation order, which the fleet makes
/// batch-order within a shard; snapshots iterate slots in order, so the
/// byte stream is independent of thread count.
class CustomerStateStore {
 public:
  /// Validates the scorer options and shard count, per the library-wide
  /// `static Result<T> Make(Options)` convention (docs/API.md).
  static Result<CustomerStateStore> Make(StateStoreOptions options);

  ~CustomerStateStore();
  CustomerStateStore(CustomerStateStore&&) noexcept;
  CustomerStateStore& operator=(CustomerStateStore&&) noexcept;

  size_t num_shards() const { return shards_.size(); }
  size_t ShardOf(retail::CustomerId customer) const {
    return StableHash(customer) % shards_.size();
  }

  /// Total customers across all shards. Locks each shard in turn; do not
  /// call from inside WithShard.
  size_t NumCustomers() const;

  /// Customers held by one shard. Locks that shard; do not call from
  /// inside WithShard on the same shard.
  size_t ShardCustomers(size_t shard) const;

  /// Handle to one customer's state inside a locked shard.
  /// Valid only while the shard lock is held (i.e. inside the WithShard
  /// callback that produced it) and until the next GetOrCreate on the
  /// shard.
  class CustomerRef {
   public:
    retail::CustomerId customer() const;

    /// Feeds one observation; returns alerts for every window that closed.
    /// Same contract as StabilityMonitor::Observe.
    Result<std::vector<core::StabilityAlert>> Observe(
        retail::Day day, const std::vector<core::Symbol>& symbols);
    /// Closes windows up to the one containing `day` without a purchase.
    Result<std::vector<core::StabilityAlert>> AdvanceTo(retail::Day day);
    /// End-of-stream flush; no-op for a never-fed customer.
    Result<std::vector<core::StabilityAlert>> Finish();

    /// Stability of the most recently closed window (1.0 before any).
    double last_stability() const;

    /// Bytes attributable to this customer: per-slot scalar footprint plus
    /// live block capacities. Shared per-shard tables excluded.
    size_t MemoryUsage() const;

   private:
    friend class CustomerStateStore;
    CustomerRef(CustomerStateStore* store, Shard* shard, size_t slot)
        : store_(store), shard_(shard), slot_(slot) {}

    CustomerStateStore* store_;
    Shard* shard_;
    size_t slot_;
  };

  /// Mutable view of one locked shard, handed to WithShard callbacks.
  class ShardAccessor {
   public:
    /// The customer's state, created on first touch. Creation is
    /// exception-safe: storage is appended first and the index entry
    /// published last, with full rollback if any step throws, so the shard
    /// can never hold an index entry pointing at a slot that was never
    /// built. Hits the "serve.state.create" failpoint on the creation
    /// path (injected faults surface as FailpointException).
    CustomerRef GetOrCreate(retail::CustomerId customer);

    /// Handle to an existing customer's state; NotFound without creating
    /// one (the read-only counterpart of GetOrCreate, used by the network
    /// front end's GET /v1/customers/{id}).
    Result<CustomerRef> Find(retail::CustomerId customer);

    /// Customers in this shard.
    size_t size() const;
    /// The id stored at `slot` (creation order, slot < size()).
    retail::CustomerId CustomerAt(size_t slot) const;
    /// Handle to the state at `slot` (creation order, slot < size()).
    CustomerRef At(size_t slot);

   private:
    friend class CustomerStateStore;
    ShardAccessor(CustomerStateStore* store, size_t shard_index)
        : store_(store), shard_index_(shard_index) {}

    CustomerStateStore* store_;
    size_t shard_index_;
  };

  /// Runs `fn(ShardAccessor&)` with shard `shard` locked and returns fn's
  /// result. Distinct shards may be visited concurrently.
  template <typename Fn>
  auto WithShard(size_t shard, Fn&& fn) {
    std::lock_guard<std::mutex> lock(ShardMutex(shard));
    ShardAccessor accessor(this, shard);
    return fn(accessor);
  }

  /// Serializes shard `shard` into `writer`: the customer count, then per
  /// customer in slot order its id varint and the bytes
  /// StabilityMonitor::SaveState writes for the same state. Locks the
  /// shard.
  void SaveShardState(size_t shard, BinaryWriter* writer) const;

  /// Replaces shard `shard` with state written by SaveShardState. The store
  /// must have been Made with the same options as the saver; customers that
  /// do not hash to `shard` are rejected as corruption. All-or-nothing: the
  /// frame is parsed into scratch storage and swapped in only when it
  /// decodes completely, so on any error the shard's prior state is
  /// untouched. Locks the shard.
  Status LoadShardState(size_t shard, BinaryReader* reader);

  /// Byte accounting for one shard. Locks that shard; O(1).
  StateMemoryStats ShardMemoryUsage(size_t shard) const;

  /// Sum of ShardMemoryUsage over all shards. Locks each shard in turn.
  StateMemoryStats MemoryUsage() const;

  const StateStoreOptions& options() const { return options_; }

 private:
  friend class ShardAccessor;
  friend class CustomerRef;

  CustomerStateStore(StateStoreOptions options,
                     std::vector<std::unique_ptr<Shard>> shards);

  std::mutex& ShardMutex(size_t shard) const;

  StateStoreOptions options_;
  /// unique_ptr so the store stays movable (Shard holds a mutex).
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace serve
}  // namespace churnlab

#endif  // CHURNLAB_SERVE_STATE_STORE_H_
