#include "retail/transaction_store.h"

#include <gtest/gtest.h>

namespace churnlab {
namespace retail {
namespace {

Receipt MakeReceipt(CustomerId customer, Day day,
                    std::vector<ItemId> items, double spend = 10.0) {
  Receipt receipt;
  receipt.customer = customer;
  receipt.day = day;
  receipt.items = std::move(items);
  receipt.spend = spend;
  return receipt;
}

TEST(TransactionStore, AppendAndFinalize) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {1, 2})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 3, {3})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 1, {4})).ok());
  EXPECT_FALSE(store.finalized());
  store.Finalize();
  EXPECT_TRUE(store.finalized());
  EXPECT_EQ(store.num_receipts(), 3u);
  EXPECT_EQ(store.num_customers(), 2u);
}

TEST(TransactionStore, HistoryIsChronological) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(7, 30, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(7, 10, {2})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(7, 20, {3})).ok());
  store.Finalize();
  const auto history = store.History(7);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].day, 10);
  EXPECT_EQ(history[1].day, 20);
  EXPECT_EQ(history[2].day, 30);
}

TEST(TransactionStore, HistoryOfUnknownCustomerIsEmpty) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1})).ok());
  store.Finalize();
  EXPECT_TRUE(store.History(99).empty());
}

TEST(TransactionStore, ItemsSortedAndDeduplicated) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {5, 1, 5, 3, 1})).ok());
  store.Finalize();
  const auto history = store.History(1);
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].items, (std::vector<ItemId>{1, 3, 5}));
}

TEST(TransactionStore, CustomersSortedAscending) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(9, 0, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 0, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(5, 0, {1})).ok());
  store.Finalize();
  EXPECT_EQ(store.Customers(), (std::vector<CustomerId>{2, 5, 9}));
}

TEST(TransactionStore, DayRangeTracked) {
  TransactionStore store;
  EXPECT_EQ(store.max_day(), -1);
  ASSERT_TRUE(store.Append(MakeReceipt(1, 42, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 7, {1})).ok());
  EXPECT_EQ(store.min_day(), 7);
  EXPECT_EQ(store.max_day(), 42);
}

TEST(TransactionStore, ValidationErrors) {
  TransactionStore store;
  EXPECT_TRUE(store.Append(MakeReceipt(kInvalidCustomer, 0, {1}))
                  .IsInvalidArgument());
  EXPECT_TRUE(store.Append(MakeReceipt(1, -1, {1})).IsInvalidArgument());
  EXPECT_TRUE(
      store.Append(MakeReceipt(1, 0, {kInvalidItem})).IsInvalidArgument());
  store.Finalize();
  EXPECT_TRUE(store.Append(MakeReceipt(1, 0, {1})).IsInvalidArgument());
}

TEST(TransactionStore, EmptyBasketAllowed) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {})).ok());
  store.Finalize();
  EXPECT_EQ(store.History(1).size(), 1u);
}

TEST(TransactionStore, CountDistinctItems) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1, 2})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 0, {2, 7})).ok());
  store.Finalize();
  EXPECT_EQ(store.CountDistinctItems(), 3u);
  EXPECT_EQ(store.item_id_bound(), 8u);
  // Cached second call returns the same.
  EXPECT_EQ(store.CountDistinctItems(), 3u);
}

TEST(TransactionStore, FinalizeIsIdempotent) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 0, {1})).ok());
  store.Finalize();
  store.Finalize();
  EXPECT_EQ(store.num_receipts(), 1u);
}

TEST(TransactionStore, StableOrderForSameDayReceipts) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(1, 5, {1}, 1.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 5, {2}, 2.0)).ok());
  store.Finalize();
  const auto history = store.History(1);
  ASSERT_EQ(history.size(), 2u);
  EXPECT_DOUBLE_EQ(history[0].spend, 1.0);  // insertion order preserved
  EXPECT_DOUBLE_EQ(history[1].spend, 2.0);
}

TEST(TransactionStore, UnsortedEqualKeysKeepAppendOrder) {
  // Out of (customer, day) order, so Finalize must sort; receipts with equal
  // keys keep their append order, told apart by spend.
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(4, 9, {1}, 1.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {1}, 2.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(4, 3, {1}, 3.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {2}, 4.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(4, 9, {2}, 5.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 1, {1}, 6.0)).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(2, 5, {3}, 7.0)).ok());
  store.Finalize();
  std::vector<double> spends;
  for (const Receipt& receipt : store.AllReceipts()) {
    spends.push_back(receipt.spend);
  }
  EXPECT_EQ(spends,
            (std::vector<double>{6.0, 2.0, 4.0, 7.0, 3.0, 1.0, 5.0}));
}

TEST(TransactionStore, AllReceiptsSpansEveryCustomer) {
  TransactionStore store;
  ASSERT_TRUE(store.Append(MakeReceipt(3, 1, {1})).ok());
  ASSERT_TRUE(store.Append(MakeReceipt(1, 2, {2})).ok());
  store.Finalize();
  const auto all = store.AllReceipts();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].customer, 1u);  // sorted by customer first
  EXPECT_EQ(all[1].customer, 3u);
}

}  // namespace
}  // namespace retail
}  // namespace churnlab
