#include "retail/dataset.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"

namespace churnlab {
namespace retail {
namespace {

// A small but structurally complete dataset: taxonomy, named items, labels.
Dataset MakeTestDataset() {
  Dataset dataset;
  const DepartmentId dairy = dataset.mutable_taxonomy().AddDepartment("dairy");
  const SegmentId milk =
      dataset.mutable_taxonomy().AddSegment("milk", dairy).ValueOrDie();
  const SegmentId cheese =
      dataset.mutable_taxonomy().AddSegment("cheese", dairy).ValueOrDie();

  const ItemId whole_milk = dataset.mutable_items().GetOrAdd("whole milk");
  const ItemId skim_milk = dataset.mutable_items().GetOrAdd("skim, milk");
  const ItemId brie = dataset.mutable_items().GetOrAdd("brie \"royal\"");
  EXPECT_TRUE(dataset.mutable_taxonomy().AssignItem(whole_milk, milk).ok());
  EXPECT_TRUE(dataset.mutable_taxonomy().AssignItem(skim_milk, milk).ok());
  EXPECT_TRUE(dataset.mutable_taxonomy().AssignItem(brie, cheese).ok());

  Receipt r1;
  r1.customer = 10;
  r1.day = 3;
  r1.spend = 12.5;
  r1.items = {whole_milk, brie};
  EXPECT_TRUE(dataset.mutable_store().Append(std::move(r1)).ok());
  Receipt r2;
  r2.customer = 10;
  r2.day = 40;
  r2.spend = 4.25;
  r2.items = {skim_milk};
  EXPECT_TRUE(dataset.mutable_store().Append(std::move(r2)).ok());
  Receipt r3;
  r3.customer = 20;
  r3.day = 70;
  r3.spend = 8.0;
  r3.items = {brie};
  EXPECT_TRUE(dataset.mutable_store().Append(std::move(r3)).ok());

  dataset.SetLabel(10, {Cohort::kLoyal, -1});
  dataset.SetLabel(20, {Cohort::kDefecting, 18});
  dataset.Finalize();
  return dataset;
}

void ExpectEquivalent(const Dataset& a, const Dataset& b) {
  const DatasetStats sa = a.ComputeStats();
  const DatasetStats sb = b.ComputeStats();
  EXPECT_EQ(sa.num_customers, sb.num_customers);
  EXPECT_EQ(sa.num_receipts, sb.num_receipts);
  EXPECT_EQ(sa.num_distinct_items, sb.num_distinct_items);
  EXPECT_EQ(sa.num_segments, sb.num_segments);
  EXPECT_EQ(sa.num_departments, sb.num_departments);
  EXPECT_EQ(sa.min_day, sb.min_day);
  EXPECT_EQ(sa.max_day, sb.max_day);
  EXPECT_EQ(sa.num_loyal, sb.num_loyal);
  EXPECT_EQ(sa.num_defecting, sb.num_defecting);
  EXPECT_NEAR(sa.avg_spend_per_receipt, sb.avg_spend_per_receipt, 0.01);

  // Per-receipt comparison by item *names* (ids may be permuted by
  // serialization order).
  ASSERT_EQ(a.store().Customers(), b.store().Customers());
  for (const CustomerId customer : a.store().Customers()) {
    const auto ha = a.store().History(customer);
    const auto hb = b.store().History(customer);
    ASSERT_EQ(ha.size(), hb.size());
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].day, hb[i].day);
      ASSERT_EQ(ha[i].items.size(), hb[i].items.size());
      std::vector<std::string> names_a, names_b;
      for (const ItemId item : ha[i].items) {
        names_a.push_back(a.items().NameOrPlaceholder(item));
      }
      for (const ItemId item : hb[i].items) {
        names_b.push_back(b.items().NameOrPlaceholder(item));
      }
      std::sort(names_a.begin(), names_a.end());
      std::sort(names_b.begin(), names_b.end());
      EXPECT_EQ(names_a, names_b);
    }
    EXPECT_EQ(a.LabelOf(customer).cohort, b.LabelOf(customer).cohort);
    EXPECT_EQ(a.LabelOf(customer).attrition_onset_month,
              b.LabelOf(customer).attrition_onset_month);
  }
}

TEST(Dataset, LabelsDefaultToUnlabeled) {
  Dataset dataset;
  EXPECT_EQ(dataset.LabelOf(5).cohort, Cohort::kUnlabeled);
  EXPECT_EQ(dataset.LabelOf(5).attrition_onset_month, -1);
}

TEST(Dataset, SetLabelOverwrites) {
  Dataset dataset;
  dataset.SetLabel(1, {Cohort::kLoyal, -1});
  dataset.SetLabel(1, {Cohort::kDefecting, 12});
  EXPECT_EQ(dataset.LabelOf(1).cohort, Cohort::kDefecting);
  EXPECT_EQ(dataset.LabelOf(1).attrition_onset_month, 12);
}

TEST(Dataset, CustomersWithCohortSorted) {
  Dataset dataset;
  dataset.SetLabel(9, {Cohort::kDefecting, 1});
  dataset.SetLabel(2, {Cohort::kDefecting, 2});
  dataset.SetLabel(5, {Cohort::kLoyal, -1});
  EXPECT_EQ(dataset.CustomersWithCohort(Cohort::kDefecting),
            (std::vector<CustomerId>{2, 9}));
  EXPECT_EQ(dataset.CustomersWithCohort(Cohort::kLoyal),
            (std::vector<CustomerId>{5}));
  EXPECT_TRUE(dataset.CustomersWithCohort(Cohort::kUnlabeled).empty());
}

TEST(Dataset, ComputeStats) {
  const Dataset dataset = MakeTestDataset();
  const DatasetStats stats = dataset.ComputeStats();
  EXPECT_EQ(stats.num_customers, 2u);
  EXPECT_EQ(stats.num_receipts, 3u);
  EXPECT_EQ(stats.num_distinct_items, 3u);
  EXPECT_EQ(stats.num_segments, 2u);
  EXPECT_EQ(stats.num_departments, 1u);
  EXPECT_EQ(stats.min_day, 3);
  EXPECT_EQ(stats.max_day, 70);
  EXPECT_EQ(stats.num_months, 3);  // months 0..2
  EXPECT_NEAR(stats.avg_basket_size, 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.avg_receipts_per_customer, 1.5, 1e-9);
  EXPECT_NEAR(stats.avg_spend_per_receipt, (12.5 + 4.25 + 8.0) / 3.0, 1e-9);
  EXPECT_EQ(stats.num_loyal, 1u);
  EXPECT_EQ(stats.num_defecting, 1u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(Dataset, CsvRoundTrip) {
  const Dataset original = MakeTestDataset();
  const std::string prefix = testing::TempDir() + "/churnlab_dataset_csv";
  ASSERT_TRUE(original.SaveCsv(prefix).ok());
  const auto loaded = Dataset::LoadCsv(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEquivalent(original, loaded.ValueOrDie());
  std::remove((prefix + ".receipts.csv").c_str());
  std::remove((prefix + ".taxonomy.csv").c_str());
  std::remove((prefix + ".labels.csv").c_str());
}

TEST(Dataset, BinaryRoundTrip) {
  const Dataset original = MakeTestDataset();
  const std::string path = testing::TempDir() + "/churnlab_dataset.clb";
  ASSERT_TRUE(original.SaveBinary(path).ok());
  const auto loaded = Dataset::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEquivalent(original, loaded.ValueOrDie());
  std::remove(path.c_str());
}

TEST(Dataset, BinaryResaveIsByteIdentical) {
  const Dataset original = MakeTestDataset();
  const std::string first = testing::TempDir() + "/churnlab_resave_a.clb";
  const std::string second = testing::TempDir() + "/churnlab_resave_b.clb";
  ASSERT_TRUE(original.SaveBinary(first).ok());
  const auto loaded = Dataset::LoadBinary(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->SaveBinary(second).ok());
  const auto bytes = [](const std::string& path) {
    return BinaryReader::OpenFile(path).ValueOrDie().ReadBytes(
        std::filesystem::file_size(path)).ValueOrDie();
  };
  EXPECT_EQ(bytes(first), bytes(second));
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Dataset, LoadBinarySortsReceiptsStoredOutOfOrder) {
  // A hand-written file (the layout SaveBinary writes) whose receipts are
  // not in (customer, day) order; equal keys are told apart by spend.
  BinaryWriter writer;
  writer.WriteVarint(0x43484C4231ULL);  // "CHLB1"
  writer.WriteVarint(1);                // version
  writer.WriteVarint(2);                // items
  writer.WriteString("a");
  writer.WriteString("b");
  writer.WriteVarint(0);  // departments
  writer.WriteVarint(0);  // segments
  writer.WriteVarint(0);  // item -> segment assignments
  const struct {
    CustomerId customer;
    Day day;
    double spend;
  } receipts[] = {{5, 9, 1.0}, {2, 4, 2.0}, {5, 1, 3.0}, {2, 4, 4.0},
                  {5, 9, 5.0}};
  writer.WriteVarint(std::size(receipts));
  for (const auto& receipt : receipts) {
    writer.WriteVarint(receipt.customer);
    writer.WriteSignedVarint(receipt.day);
    writer.WriteDouble(receipt.spend);
    writer.WriteVarint(2);  // items 0 and 1, delta-encoded
    writer.WriteVarint(0);
    writer.WriteVarint(1);
  }
  writer.WriteVarint(0);  // labels
  const std::string path = testing::TempDir() + "/churnlab_unsorted.clb";
  ASSERT_TRUE(writer.SaveToFile(path).ok());

  const auto loaded = Dataset::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<std::tuple<CustomerId, Day, double>> order;
  for (const Receipt& receipt : loaded->store().AllReceipts()) {
    order.emplace_back(receipt.customer, receipt.day, receipt.spend);
    EXPECT_EQ(receipt.items, (std::vector<ItemId>{0, 1}));
  }
  EXPECT_EQ(order, (std::vector<std::tuple<CustomerId, Day, double>>{
                       {2, 4, 2.0}, {2, 4, 4.0}, {5, 1, 3.0}, {5, 9, 1.0},
                       {5, 9, 5.0}}));
  EXPECT_EQ(loaded->store().History(5).size(), 3u);
  std::remove(path.c_str());
}

TEST(Dataset, LoadBinaryRejectsGarbage) {
  const std::string path = testing::TempDir() + "/churnlab_garbage.clb";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    std::fputs("not a dataset", file);
    std::fclose(file);
  }
  EXPECT_FALSE(Dataset::LoadBinary(path).ok());
  std::remove(path.c_str());
}

TEST(Dataset, LoadCsvMissingFilesFails) {
  EXPECT_TRUE(
      Dataset::LoadCsv("/nonexistent/prefix").status().IsIOError());
}

TEST(CohortStrings, RoundTrip) {
  EXPECT_EQ(CohortFromString(CohortToString(Cohort::kLoyal)).ValueOrDie(),
            Cohort::kLoyal);
  EXPECT_EQ(CohortFromString(CohortToString(Cohort::kDefecting)).ValueOrDie(),
            Cohort::kDefecting);
  EXPECT_EQ(CohortFromString(CohortToString(Cohort::kUnlabeled)).ValueOrDie(),
            Cohort::kUnlabeled);
  EXPECT_TRUE(CohortFromString("bogus").status().IsInvalidArgument());
}

TEST(DayMonthConversions, Basics) {
  EXPECT_EQ(DayToMonth(0), 0);
  EXPECT_EQ(DayToMonth(29), 0);
  EXPECT_EQ(DayToMonth(30), 1);
  EXPECT_EQ(DayToMonth(59), 1);
  EXPECT_EQ(MonthToFirstDay(0), 0);
  EXPECT_EQ(MonthToFirstDay(18), 540);
  EXPECT_EQ(DayToMonth(MonthToFirstDay(7)), 7);
  EXPECT_EQ(DayToMonth(-1), -1);
  EXPECT_EQ(DayToMonth(-30), -1);
  EXPECT_EQ(DayToMonth(-31), -2);
}


// ---------------------------------------------------------------------------
// Pins of LoadBinary's receipt section on a file large enough for a chunked
// decoder (at least three chunks of 1,024 receipts): the load reports the
// earliest bad receipt with the status the serial decoder gives, and a
// good file loads exactly as Append would build it.
// ---------------------------------------------------------------------------

constexpr size_t kPinReceipts = 5 * 1024 + 100;
constexpr size_t kPinItems = 20;

enum class Fault {
  kNone,
  kTruncatedVarint,  // the file ends inside the receipt's customer varint
  kTruncatedDouble,  // the file ends inside the receipt's spend
  kItemCountBeyondBytes,
  kVarintOverflow,  // an 11-byte customer varint
  kInvalidCustomer,
  kNegativeDay,
  kInvalidItem,
  kBadCohort,  // a label, after every receipt
};

// The status the loader reports for `fault` placed at receipt `r`.
Status ExpectedStatus(Fault fault, size_t r) {
  switch (fault) {
    case Fault::kTruncatedVarint:
      return Status::OutOfRange("truncated varint at end of buffer");
    case Fault::kTruncatedDouble:
      return Status::OutOfRange("truncated double at end of buffer");
    case Fault::kItemCountBeyondBytes:
      return Status::InvalidArgument(
          "receipt item count exceeds remaining dataset bytes");
    case Fault::kVarintOverflow:
      return Status::OutOfRange("varint overflows 64 bits");
    case Fault::kInvalidCustomer:
      return Status::InvalidArgument("receipt has invalid customer id");
    case Fault::kNegativeDay:
      return Status::InvalidArgument("receipt day must be >= 0, got -" +
                                     std::to_string(r + 1));
    case Fault::kInvalidItem:
      return Status::InvalidArgument("receipt contains kInvalidItem");
    case Fault::kBadCohort:
      return Status::InvalidArgument("corrupt cohort value 7");
    case Fault::kNone:
      break;
  }
  return Status::OK();
}

// Receipt `r` of the pin file: customers ascending with four receipts each,
// days ascending within a customer, and 1-5 items as delta varints.
struct PinReceipt {
  CustomerId customer;
  Day day;
  double spend;
  std::vector<uint64_t> deltas;
};

PinReceipt MakePinReceipt(size_t r) {
  PinReceipt receipt;
  receipt.customer = static_cast<CustomerId>(1000 + r / 4);
  receipt.day = static_cast<Day>(1 + (r % 4) * 100 + r % 7);
  receipt.spend = 0.25 * static_cast<double>(r);
  receipt.deltas.push_back(r % 3);
  for (size_t i = 1; i < 1 + r % 5; ++i) receipt.deltas.push_back(3);
  return receipt;
}

// Writes the pin file to `path` with a fault at each receipt index of
// `faults` (kBadCohort's index is ignored: it corrupts the first label).
// `deltas` replaces the item deltas of chosen receipts.
void WritePinFile(const std::string& path,
                  const std::vector<std::pair<size_t, Fault>>& faults,
                  const std::vector<std::pair<size_t, std::vector<uint64_t>>>&
                      deltas = {}) {
  BinaryWriter writer;
  writer.WriteVarint(0x43484C4231ULL);  // "CHLB1"
  writer.WriteVarint(1);                // version
  writer.WriteVarint(kPinItems);
  for (size_t i = 0; i < kPinItems; ++i) {
    writer.WriteString("item" + std::to_string(i));
  }
  writer.WriteVarint(1);  // departments
  writer.WriteString("grocery");
  writer.WriteVarint(1);  // segments
  writer.WriteString("all");
  writer.WriteVarint(0);
  writer.WriteVarint(kPinItems);  // item -> segment assignments
  for (size_t i = 0; i < kPinItems; ++i) {
    writer.WriteVarint(i);
    writer.WriteVarint(0);
  }
  const auto fault_at = [&](size_t r) {
    for (const auto& [index, fault] : faults) {
      if (index == r && fault != Fault::kBadCohort) return fault;
    }
    return Fault::kNone;
  };
  writer.WriteVarint(kPinReceipts);
  for (size_t r = 0; r < kPinReceipts; ++r) {
    PinReceipt receipt = MakePinReceipt(r);
    for (const auto& [index, replaced] : deltas) {
      if (index == r) receipt.deltas = replaced;
    }
    const Fault fault = fault_at(r);
    if (fault == Fault::kTruncatedVarint) {
      BinaryWriter customer;
      customer.WriteVarint(receipt.customer);
      ASSERT_GT(customer.buffer().size(), 1u);
      writer.WriteBytes(customer.buffer().data(), 1);
      ASSERT_TRUE(writer.SaveToFile(path).ok());
      return;
    }
    if (fault == Fault::kVarintOverflow) {
      const unsigned char overflow[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                        0xFF, 0xFF, 0xFF, 0xFF, 0x01};
      writer.WriteBytes(overflow, sizeof(overflow));
    } else {
      writer.WriteVarint(fault == Fault::kInvalidCustomer ? kInvalidCustomer
                                                          : receipt.customer);
    }
    writer.WriteSignedVarint(fault == Fault::kNegativeDay
                                 ? -static_cast<int64_t>(r + 1)
                                 : int64_t{receipt.day});
    if (fault == Fault::kTruncatedDouble) {
      writer.WriteBytes(&receipt.spend, 3);
      ASSERT_TRUE(writer.SaveToFile(path).ok());
      return;
    }
    writer.WriteDouble(receipt.spend);
    if (fault == Fault::kInvalidItem) {
      receipt.deltas = {3, uint64_t{kInvalidItem} - 3};
    }
    writer.WriteVarint(fault == Fault::kItemCountBeyondBytes
                           ? uint64_t{1} << 40
                           : receipt.deltas.size());
    for (const uint64_t delta : receipt.deltas) writer.WriteVarint(delta);
  }
  bool bad_cohort = false;
  for (const auto& [index, fault] : faults) {
    bad_cohort = bad_cohort || fault == Fault::kBadCohort;
  }
  writer.WriteVarint(2);  // labels
  writer.WriteVarint(1000);
  writer.WriteVarint(bad_cohort ? 7 : static_cast<uint64_t>(Cohort::kLoyal));
  writer.WriteSignedVarint(-1);
  writer.WriteVarint(1001);
  writer.WriteVarint(static_cast<uint64_t>(Cohort::kDefecting));
  writer.WriteSignedVarint(12);
  ASSERT_TRUE(writer.SaveToFile(path).ok());
}

// A path of the running test's own: ctest runs tests in parallel.
std::string PinPath(std::string_view suffix = "") {
  return testing::TempDir() + "/churnlab_pin_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         std::string(suffix) + ".clb";
}

constexpr Fault kReceiptFaults[] = {
    Fault::kTruncatedVarint, Fault::kTruncatedDouble,
    Fault::kItemCountBeyondBytes, Fault::kVarintOverflow,
    Fault::kInvalidCustomer, Fault::kNegativeDay, Fault::kInvalidItem};

bool EndsTheFile(Fault fault) {
  return fault == Fault::kTruncatedVarint || fault == Fault::kTruncatedDouble;
}

TEST(DatasetLoadBinary, ReportsOneBadReceiptInAnyChunk) {
  const std::string path = PinPath();
  // The first chunk, a middle chunk, and the last receipt.
  for (const size_t r : {size_t{5}, size_t{2 * 1024 + 300}, kPinReceipts - 1}) {
    for (const Fault fault : kReceiptFaults) {
      SCOPED_TRACE("fault " + std::to_string(static_cast<int>(fault)) +
                   " at receipt " + std::to_string(r));
      WritePinFile(path, {{r, fault}});
      const auto loaded = Dataset::LoadBinary(path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().ToString(),
                ExpectedStatus(fault, r).ToString());
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetLoadBinary, ReportsBadCohortAfterEveryReceipt) {
  const std::string path = PinPath();
  WritePinFile(path, {{0, Fault::kBadCohort}});
  const auto loaded = Dataset::LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().ToString(),
            ExpectedStatus(Fault::kBadCohort, 0).ToString());
  std::remove(path.c_str());
}

TEST(DatasetLoadBinary, ReportsTheEarliestOfTwoFaultsInDifferentChunks) {
  // Every fault that leaves the file whole, in chunk 1, ahead of every
  // fault in chunk 3 (or a bad label); the earlier one is reported.
  const std::string path = PinPath();
  const size_t early = 1024 + 7;
  const size_t late = 3 * 1024 + 11;
  for (const Fault first : kReceiptFaults) {
    if (EndsTheFile(first)) continue;
    std::vector<Fault> seconds(std::begin(kReceiptFaults),
                               std::end(kReceiptFaults));
    seconds.push_back(Fault::kBadCohort);
    for (const Fault second : seconds) {
      SCOPED_TRACE("fault " + std::to_string(static_cast<int>(first)) +
                   " then " + std::to_string(static_cast<int>(second)));
      WritePinFile(path, {{early, first}, {late, second}});
      const auto loaded = Dataset::LoadBinary(path);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().ToString(),
                ExpectedStatus(first, early).ToString());
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetLoadBinary, MultiChunkResaveIsByteIdentical) {
  const std::string path = PinPath();
  WritePinFile(path, {});
  const Dataset original = Dataset::LoadBinary(path).ValueOrDie();
  ASSERT_EQ(original.store().num_receipts(), kPinReceipts);
  const std::string first = PinPath("_a");
  const std::string second = PinPath("_b");
  ASSERT_TRUE(original.SaveBinary(first).ok());
  const auto loaded = Dataset::LoadBinary(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->SaveBinary(second).ok());
  const auto bytes = [](const std::string& file) {
    return BinaryReader::OpenFile(file).ValueOrDie().ReadBytes(
        std::filesystem::file_size(file)).ValueOrDie();
  };
  EXPECT_EQ(bytes(first), bytes(second));
  // The pin file is already in SaveBinary's canonical form.
  EXPECT_EQ(bytes(path), bytes(first));
  std::remove(path.c_str());
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(DatasetLoadBinary, NormalisesItemsExactlyAsAppend) {
  // Zero deltas repeat an item; a delta past 2^32 - 1 wraps the running id,
  // so the list is out of order; both are normalised as Append does.
  const std::vector<std::pair<size_t, std::vector<uint64_t>>> deltas = {
      {3, {5, 0, 0, 3}},
      {1024 + 1, {10, (uint64_t{1} << 32) - 7}},
      {2 * 1024 + 9, {7, 0, (uint64_t{1} << 40) + 2, 0}},
      {4 * 1024 + 2, {0, 0}},
      {kPinReceipts - 1, {12, (uint64_t{1} << 32) - 12, 1, 0}},
  };
  const std::string path = PinPath();
  WritePinFile(path, {}, deltas);
  const auto loaded = Dataset::LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  TransactionStore expected;
  for (size_t r = 0; r < kPinReceipts; ++r) {
    PinReceipt pin = MakePinReceipt(r);
    for (const auto& [index, replaced] : deltas) {
      if (index == r) pin.deltas = replaced;
    }
    Receipt receipt;
    receipt.customer = pin.customer;
    receipt.day = pin.day;
    receipt.spend = pin.spend;
    ItemId previous = 0;
    for (const uint64_t delta : pin.deltas) {
      previous = static_cast<ItemId>(previous + delta);
      receipt.items.push_back(previous);
    }
    ASSERT_TRUE(expected.Append(std::move(receipt)).ok());
  }
  expected.Finalize();
  const TransactionStore& store = loaded->store();
  ASSERT_EQ(store.num_receipts(), expected.num_receipts());
  EXPECT_EQ(store.min_day(), expected.min_day());
  EXPECT_EQ(store.max_day(), expected.max_day());
  EXPECT_EQ(store.item_id_bound(), expected.item_id_bound());
  EXPECT_EQ(store.Customers(), expected.Customers());
  for (size_t i = 0; i < store.num_receipts(); ++i) {
    const Receipt& got = store.AllReceipts()[i];
    const Receipt& want = expected.AllReceipts()[i];
    ASSERT_EQ(got.customer, want.customer) << i;
    ASSERT_EQ(got.day, want.day) << i;
    ASSERT_EQ(got.spend, want.spend) << i;
    ASSERT_EQ(got.items, want.items) << i;
  }
  EXPECT_EQ(store.AllReceipts()[3].items, (std::vector<ItemId>{5, 8}));
  EXPECT_EQ(store.AllReceipts()[1024 + 1].items,
            (std::vector<ItemId>{3, 10}));
  EXPECT_EQ(store.AllReceipts()[4 * 1024 + 2].items,
            (std::vector<ItemId>{0}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace retail
}  // namespace churnlab
