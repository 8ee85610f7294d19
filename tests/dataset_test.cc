#include "retail/dataset.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <tuple>
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

}  // namespace
}  // namespace retail
}  // namespace churnlab
