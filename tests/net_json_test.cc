// Ingest-body parsing and response rendering for the HTTP front end. The
// parser is the quarantine boundary for malformed client JSON, so error
// messages must name the offending receipt and hostile shapes must fail
// fast without deep recursion or large allocation.

#include "net/json_codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

namespace churnlab {
namespace net {
namespace {

TEST(ParseReceiptBatch, ParsesFullReceipts) {
  const Result<std::vector<retail::Receipt>> parsed = ParseReceiptBatch(
      R"({"receipts":[{"customer":17,"day":360,"spend":12.5,"items":[3,19]},)"
      R"({"customer":2,"day":1}]})",
      /*max_receipts=*/100);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<retail::Receipt>& receipts = *parsed;
  ASSERT_EQ(receipts.size(), 2u);
  EXPECT_EQ(receipts[0].customer, 17u);
  EXPECT_EQ(receipts[0].day, 360);
  EXPECT_DOUBLE_EQ(receipts[0].spend, 12.5);
  EXPECT_EQ(receipts[0].items, (std::vector<retail::ItemId>{3, 19}));
  EXPECT_EQ(receipts[1].customer, 2u);
  EXPECT_EQ(receipts[1].day, 1);
  EXPECT_TRUE(receipts[1].items.empty());
}

TEST(ParseReceiptBatch, FieldOrderIsFree) {
  const Result<std::vector<retail::Receipt>> parsed = ParseReceiptBatch(
      R"({"receipts":[{"items":[5],"day":7,"spend":1.0,"customer":9}]})",
      /*max_receipts=*/10);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed)[0].customer, 9u);
  EXPECT_EQ((*parsed)[0].day, 7);
}

TEST(ParseReceiptBatch, ToleratesWhitespace) {
  const Result<std::vector<retail::Receipt>> parsed = ParseReceiptBatch(
      " { \"receipts\" : [ { \"customer\" : 1 , \"day\" : 2 } ] } ",
      /*max_receipts=*/10);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(ParseReceiptBatch, EmptyBatchIsValid) {
  const Result<std::vector<retail::Receipt>> parsed =
      ParseReceiptBatch(R"({"receipts":[]})", /*max_receipts=*/10);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->empty());
}

TEST(ParseReceiptBatch, UnknownKeyRejectedWithReceiptIndex) {
  const Result<std::vector<retail::Receipt>> parsed = ParseReceiptBatch(
      R"({"receipts":[{"customer":1,"day":2},{"customer":3,"day":4,"x":5}]})",
      /*max_receipts=*/10);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find("receipt 1"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ParseReceiptBatch, MissingRequiredFieldRejected) {
  for (const char* body : {
           R"({"receipts":[{"day":2}]})",       // no customer
           R"({"receipts":[{"customer":1}]})",  // no day
       }) {
    const Result<std::vector<retail::Receipt>> parsed =
        ParseReceiptBatch(body, /*max_receipts=*/10);
    ASSERT_FALSE(parsed.ok()) << body;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << body;
    EXPECT_NE(parsed.status().message().find("receipt 0"), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ParseReceiptBatch, SyntaxErrorsRejected) {
  for (const char* body : {
           "",
           "null",
           "[]",
           R"({"receipts":)",
           R"({"receipts":[{"customer":1,"day":2})",
           R"({"receipts":[{"customer":,"day":2}]})",
           R"({"wrong":[]})",
       }) {
    const Result<std::vector<retail::Receipt>> parsed =
        ParseReceiptBatch(body, /*max_receipts=*/10);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << body;
    EXPECT_TRUE(parsed.status().IsInvalidArgument())
        << body << ": " << parsed.status().ToString();
  }
}

TEST(ParseReceiptBatch, TrailingBytesRejected) {
  const Result<std::vector<retail::Receipt>> parsed = ParseReceiptBatch(
      R"({"receipts":[{"customer":1,"day":2}]} extra)", /*max_receipts=*/10);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument())
      << parsed.status().ToString();
}

TEST(ParseReceiptBatch, BatchBeyondLimitIsOutOfRange) {
  std::string body = R"({"receipts":[)";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) body += ',';
    body += R"({"customer":1,"day":2})";
  }
  body += "]}";
  ASSERT_TRUE(ParseReceiptBatch(body, /*max_receipts=*/4).ok());
  const Result<std::vector<retail::Receipt>> parsed =
      ParseReceiptBatch(body, /*max_receipts=*/3);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsOutOfRange()) << parsed.status().ToString();
}

TEST(ParseReceiptBatch, HostileNestingFailsFast) {
  // A megabyte of open brackets must be rejected by shape checking, not
  // recursed into — the scanner is iterative with O(1) stack.
  std::string body = R"({"receipts":)";
  body.append(1u << 20, '[');
  const Result<std::vector<retail::Receipt>> parsed =
      ParseReceiptBatch(body, /*max_receipts=*/10);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument())
      << parsed.status().ToString();
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Pins accept/reject and the exact bits of number tokens, so a faster
// number parser cannot drift from the strtod semantics clients rely on:
// the journal and the offline oracle must see the same spend bits.
TEST(ParseReceiptBatch, NumberTokensTable) {
  struct Case {
    const char* spend;
    bool accepted;
    uint64_t bits;
  };
  const Case cases[] = {
      {"+1.5", true, 0x3ff8000000000000ull},
      {"1e400", false, 0},
      {"-1e400", false, 0},
      {"1e-400", false, 0},
      // strtod reports ERANGE for a subnormal result, so it is rejected.
      {"4.9e-324", false, 0},
      {"2.2250738585072014e-308", true, 0x0010000000000000ull},
      {"-0", true, 0x8000000000000000ull},
      {"007", true, 0x401c000000000000ull},
      {"1.", true, 0x3ff0000000000000ull},
      {".5", true, 0x3fe0000000000000ull},
      {"-.5", true, 0xbfe0000000000000ull},
      {"1E+5", true, 0x40f86a0000000000ull},
      {"0.30000000000000004", true, 0x3fd3333333333334ull},
      {"1.7976931348623157e308", true, 0x7fefffffffffffffull},
      {"1e", false, 0},
      {"--1", false, 0},
      {"1.5.2", false, 0},
  };
  for (const Case& c : cases) {
    const std::string body = std::string(R"({"receipts":[{"customer":1,)") +
                             R"("day":2,"spend":)" + c.spend + "}]}";
    const Result<std::vector<retail::Receipt>> parsed =
        ParseReceiptBatch(body, /*max_receipts=*/10);
    EXPECT_EQ(parsed.ok(), c.accepted) << c.spend;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << c.spend;
      EXPECT_NE(parsed.status().message().find("receipt 0"),
                std::string::npos)
          << parsed.status().ToString();
      EXPECT_NE(parsed.status().message().find(c.spend), std::string::npos)
          << parsed.status().ToString();
      continue;
    }
    ASSERT_EQ(parsed->size(), 1u);
    EXPECT_EQ(BitsOf((*parsed)[0].spend), c.bits) << c.spend;
  }

  // Identifiers stay integers: exponent notation is not an id.
  const Result<std::vector<retail::Receipt>> exponent_id = ParseReceiptBatch(
      R"({"receipts":[{"customer":1e5,"day":2}]})", /*max_receipts=*/10);
  ASSERT_FALSE(exponent_id.ok());
  EXPECT_EQ(exponent_id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exponent_id.status().message().find("1e5"), std::string::npos)
      << exponent_id.status().ToString();
}

TEST(ParseReceiptBatch, ManyItemsAndReceiptsRoundTrip) {
  std::string body = R"({"receipts":[)";
  for (int r = 0; r < 50; ++r) {
    if (r > 0) body += ',';
    body += R"({"customer":)" + std::to_string(r) + R"(,"day":)" +
            std::to_string(r * 3) + R"(,"items":[)";
    for (int i = 0; i <= r; ++i) {
      if (i > 0) body += ',';
      body += std::to_string(i * 7);
    }
    body += "]}";
  }
  body += "]}";
  const Result<std::vector<retail::Receipt>> parsed =
      ParseReceiptBatch(body, /*max_receipts=*/100);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 50u);
  for (int r = 0; r < 50; ++r) {
    const retail::Receipt& receipt = (*parsed)[static_cast<size_t>(r)];
    EXPECT_EQ(receipt.customer, static_cast<retail::CustomerId>(r));
    ASSERT_EQ(receipt.items.size(), static_cast<size_t>(r + 1));
    EXPECT_EQ(receipt.items.back(), static_cast<retail::ItemId>(r * 7));
  }
}

TEST(WriteBatchReportJson, CarriesCountsAndSequence) {
  serve::BatchReport report;
  report.receipts_ingested = 41;
  report.new_customers = 3;
  const std::string json = WriteBatchReportJson(report, /*first_sequence=*/777);
  EXPECT_NE(json.find("\"receipts_ingested\":41"), std::string::npos) << json;
  EXPECT_NE(json.find("\"new_customers\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sequence\":777"), std::string::npos) << json;
}

TEST(WriteBatchReportJson, QuarantineReasonsSurface) {
  serve::BatchReport report;
  serve::RejectedReceipt rejected;
  rejected.customer = 5;
  rejected.batch_index = 2;
  rejected.day = 9;
  rejected.reason = Status::InvalidArgument("day moves backwards");
  report.rejected.push_back(rejected);
  const std::string json = WriteBatchReportJson(report, 0);
  EXPECT_NE(json.find("day moves backwards"), std::string::npos) << json;
  EXPECT_NE(json.find("\"customer\":5"), std::string::npos) << json;
}

TEST(WriteCustomerJson, CarriesAllFields) {
  serve::CustomerQuery query;
  query.customer = 12;
  query.shard = 4;
  query.stability = 0.75;
  query.state_bytes = 96;
  const std::string json = WriteCustomerJson(query);
  EXPECT_NE(json.find("\"customer\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("0.75"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state_bytes\":96"), std::string::npos) << json;
}

TEST(WriteHealthJson, CarriesAggregatesAndShards) {
  serve::FleetHealth health;
  health.receipts_total = 100;
  health.customers_total = 7;
  health.poisoned_shards = 1;
  serve::ShardHealthStats shard;
  shard.shard = 0;
  shard.receipts = 100;
  health.shards.push_back(shard);
  const std::string json = WriteHealthJson(health);
  EXPECT_NE(json.find("\"receipts_total\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"customers_total\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"poisoned_shards\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\""), std::string::npos) << json;
}

TEST(WriteErrorJson, UsesStatusCodeNameAndEscapesMessage) {
  const std::string json =
      WriteErrorJson(Status::InvalidArgument("bad \"quote\" here"));
  EXPECT_NE(json.find("\"error\""), std::string::npos) << json;
  EXPECT_NE(json.find("Invalid argument"), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quote\\\""), std::string::npos) << json;
}

TEST(WriteSnapshotJson, CarriesPath) {
  const std::string json = WriteSnapshotJson("/tmp/fleet.snap");
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("/tmp/fleet.snap"), std::string::npos) << json;
}

}  // namespace
}  // namespace net
}  // namespace churnlab
