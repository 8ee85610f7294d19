#include "retail/transaction_store.h"

#include <algorithm>
#include <cassert>

namespace churnlab {
namespace retail {

Status TransactionStore::Append(Receipt receipt) {
  if (finalized_) {
    return Status::InvalidArgument("cannot append to a finalized store");
  }
  if (receipt.customer == kInvalidCustomer) {
    return Status::InvalidArgument("receipt has invalid customer id");
  }
  if (receipt.day < 0) {
    return Status::InvalidArgument("receipt day must be >= 0, got " +
                                   std::to_string(receipt.day));
  }
  std::sort(receipt.items.begin(), receipt.items.end());
  receipt.items.erase(
      std::unique(receipt.items.begin(), receipt.items.end()),
      receipt.items.end());
  if (!receipt.items.empty() && receipt.items.back() == kInvalidItem) {
    return Status::InvalidArgument("receipt contains kInvalidItem");
  }
  if (receipts_.empty()) {
    min_day_ = receipt.day;
    max_day_ = receipt.day;
  } else {
    min_day_ = std::min(min_day_, receipt.day);
    max_day_ = std::max(max_day_, receipt.day);
  }
  if (!receipt.items.empty()) {
    item_id_bound_ =
        std::max(item_id_bound_, static_cast<size_t>(receipt.items.back()) + 1);
  }
  receipts_.push_back(std::move(receipt));
  distinct_items_valid_ = false;
  return Status::OK();
}

void TransactionStore::Finalize() {
  if (finalized_) return;
  const auto by_customer_day = [](const Receipt& a, const Receipt& b) {
    if (a.customer != b.customer) return a.customer < b.customer;
    return a.day < b.day;
  };
  // A dataset saved by Dataset::SaveBinary loads already in this order;
  // the check is one pass, the sort several.
  if (!std::is_sorted(receipts_.begin(), receipts_.end(), by_customer_day)) {
    std::stable_sort(receipts_.begin(), receipts_.end(), by_customer_day);
  }
  customer_index_.clear();
  customers_sorted_.clear();
  size_t begin = 0;
  for (size_t i = 0; i <= receipts_.size(); ++i) {
    if (i == receipts_.size() ||
        (i > begin && receipts_[i].customer != receipts_[begin].customer)) {
      if (i > begin) {
        const CustomerId customer = receipts_[begin].customer;
        customer_index_.emplace(customer, CustomerSlot{begin, i});
        customers_sorted_.push_back(customer);
      }
      begin = i;
    }
  }
  finalized_ = true;
}

std::span<const Receipt> TransactionStore::History(CustomerId customer) const {
  assert(finalized_);
  const auto it = customer_index_.find(customer);
  if (it == customer_index_.end()) return {};
  return std::span<const Receipt>(receipts_.data() + it->second.begin,
                                  it->second.end - it->second.begin);
}

const std::vector<CustomerId>& TransactionStore::Customers() const {
  assert(finalized_);
  return customers_sorted_;
}

std::span<const Receipt> TransactionStore::AllReceipts() const {
  assert(finalized_);
  return std::span<const Receipt>(receipts_.data(), receipts_.size());
}

size_t TransactionStore::CountDistinctItems() const {
  if (distinct_items_valid_) return distinct_items_cache_;
  std::vector<bool> seen(item_id_bound_, false);
  size_t count = 0;
  for (const Receipt& receipt : receipts_) {
    for (const ItemId item : receipt.items) {
      if (!seen[item]) {
        seen[item] = true;
        ++count;
      }
    }
  }
  distinct_items_cache_ = count;
  distinct_items_valid_ = true;
  return count;
}

}  // namespace retail
}  // namespace churnlab
