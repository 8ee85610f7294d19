#ifndef CHURNLAB_RETAIL_TRANSACTION_STORE_H_
#define CHURNLAB_RETAIL_TRANSACTION_STORE_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "retail/types.h"

namespace churnlab {
namespace retail {

/// \brief In-memory receipt store with per-customer chronological access.
///
/// The store is append-then-read: receipts are appended in any order, then
/// `Finalize()` sorts them by (customer, day) and builds the per-customer
/// index. Reads before finalization fail. This two-phase design keeps the
/// storage layout a single contiguous vector (cache-friendly scans) at the
/// cost of no incremental updates — exactly what a batch attrition analysis
/// needs.
///
/// \code
///   TransactionStore store;
///   store.Append({.customer = 7, .day = 3, .spend = 21.4, .items = {1, 5}});
///   store.Finalize();
///   for (const Receipt& r : store.History(7)) { ... }
/// \endcode
class TransactionStore {
 public:
  TransactionStore() = default;

  TransactionStore(TransactionStore&&) = default;
  TransactionStore& operator=(TransactionStore&&) = default;
  TransactionStore(const TransactionStore&) = delete;
  TransactionStore& operator=(const TransactionStore&) = delete;

  /// Appends one receipt, normalised by NormalizeReceipt. Fails if the
  /// store is already finalized or NormalizeReceipt fails.
  Status Append(Receipt receipt);

  /// The checks and normalisation of one receipt that every way into the
  /// store shares: fails if the customer id is invalid, the day is
  /// negative, or an item is kInvalidItem; sorts and deduplicates the item
  /// list (baskets are item sets in this model). Touches only `receipt`,
  /// so loaders call it from many threads at once.
  static Status NormalizeReceipt(Receipt* receipt);

  /// Bulk counterpart of Append: takes over `receipts`, each already
  /// passed through NormalizeReceipt, without copying them. Requires an
  /// empty, unfinalized store.
  void Adopt(std::vector<Receipt> receipts);

  /// Sorts receipts and builds the customer index. Idempotent.
  void Finalize();

  bool finalized() const { return finalized_; }

  size_t num_receipts() const { return receipts_.size(); }
  size_t num_customers() const { return customer_index_.size(); }
  bool empty() const { return receipts_.empty(); }

  /// Chronologically ordered receipts of `customer`; empty span for unknown
  /// customers. Requires `finalized()`.
  std::span<const Receipt> History(CustomerId customer) const;

  /// All customer ids in ascending order. Requires `finalized()`.
  const std::vector<CustomerId>& Customers() const;

  /// All receipts sorted by (customer, day). Requires `finalized()`.
  std::span<const Receipt> AllReceipts() const;

  /// Earliest / latest receipt day; {0, -1} when empty.
  Day min_day() const { return min_day_; }
  Day max_day() const { return max_day_; }

  /// Largest item id referenced + 1 (0 when empty) — vectors indexed by
  /// ItemId can be sized with this.
  size_t item_id_bound() const { return item_id_bound_; }

  /// Number of distinct items referenced across all receipts (O(items)
  /// bitmap scan; cached after first call on a finalized store).
  size_t CountDistinctItems() const;

 private:
  /// Widens the day range and item-id bound to cover `receipt`.
  void Cover(const Receipt& receipt, bool first);

  struct CustomerSlot {
    size_t begin = 0;
    size_t end = 0;
  };

  std::vector<Receipt> receipts_;
  std::unordered_map<CustomerId, CustomerSlot> customer_index_;
  std::vector<CustomerId> customers_sorted_;
  bool finalized_ = false;
  Day min_day_ = 0;
  Day max_day_ = -1;
  size_t item_id_bound_ = 0;
  mutable size_t distinct_items_cache_ = 0;
  mutable bool distinct_items_valid_ = false;
};

}  // namespace retail
}  // namespace churnlab

#endif  // CHURNLAB_RETAIL_TRANSACTION_STORE_H_
