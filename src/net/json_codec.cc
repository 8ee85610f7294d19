#include "net/json_codec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace churnlab {
namespace net {

namespace {

/// Iterative cursor over a fixed-shape JSON document. Nesting is matched
/// explicitly by the grammar below (object -> array -> flat object -> flat
/// array, depth 4), never by recursion.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Peek(char expected) {
    SkipWhitespace();
    return pos_ < text_.size() && text_[pos_] == expected;
  }

  bool Consume(char expected) {
    if (!Peek(expected)) return false;
    ++pos_;
    return true;
  }

  Status Expect(char expected) {
    if (Consume(expected)) return Status::OK();
    return Status::InvalidArgument(
        std::string("expected '") + expected + "' at byte " +
        std::to_string(pos_) + " of the JSON body");
  }

  /// A JSON string with no escapes (sufficient for the fixed key set; an
  /// escaped key cannot match any known key anyway).
  Result<std::string_view> Key() {
    CHURNLAB_RETURN_NOT_OK(Expect('"'));
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        return Status::InvalidArgument("escaped JSON keys are not accepted");
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unterminated JSON string");
    }
    const std::string_view key = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return key;
  }

  /// The raw extent of one JSON number token.
  Result<std::string_view> NumberToken() {
    SkipWhitespace();
    const size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected a JSON number at byte " +
                                     std::to_string(start));
    }
    return text_.substr(start, pos_ - start);
  }

  Result<uint64_t> Uint() {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string_view token, NumberToken());
    return ParseUint64(token);
  }

  Result<int64_t> Int() {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string_view token, NumberToken());
    return ParseInt64(token);
  }

  /// strtod semantics without its per-token string copy: from_chars
  /// takes the common case; anything it refuses (a leading '+', overflow,
  /// trailing junk) and any subnormal result, which strtod rejects with
  /// ERANGE, go to ParseDouble for the same verdict and error message.
  Result<double> Number() {
    CHURNLAB_ASSIGN_OR_RETURN(const std::string_view token, NumberToken());
    const char* const end = token.data() + token.size();
    double value = 0;
    const auto [parsed_end, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc() && parsed_end == end &&
        std::fpclassify(value) != FP_SUBNORMAL) {
      return value;
    }
    return ParseDouble(token);
  }

  /// Elements of the flat array whose '[' was just consumed, counted as
  /// its commas plus one: a reserve hint, exact for well-formed input and
  /// capped so a body of bare commas cannot size a large allocation.
  size_t FlatArrayLengthHint() const {
    constexpr size_t kMaxHint = 4096;
    const char* const begin = text_.data() + pos_;
    const void* close = std::memchr(begin, ']', text_.size() - pos_);
    if (close == nullptr) return 0;
    const auto commas = static_cast<size_t>(
        std::count(begin, static_cast<const char*>(close), ','));
    return std::min(commas + 1, kMaxHint);
  }

  bool AtEnd() {
    SkipWhitespace();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ReceiptError(size_t index, const Status& status) {
  return status.WithContext("receipt " + std::to_string(index));
}

/// One flat receipt object. `index` only flavors error messages.
Status ParseOneReceipt(Scanner* scanner, size_t index,
                       retail::Receipt* receipt) {
  CHURNLAB_RETURN_NOT_OK(scanner->Expect('{'));
  bool have_customer = false;
  bool have_day = false;
  if (!scanner->Consume('}')) {
    for (;;) {
      Result<std::string_view> key = scanner->Key();
      if (!key.ok()) return ReceiptError(index, key.status());
      CHURNLAB_RETURN_NOT_OK(scanner->Expect(':'));
      if (*key == "customer") {
        Result<uint64_t> value = scanner->Uint();
        if (!value.ok()) return ReceiptError(index, value.status());
        if (*value > std::numeric_limits<retail::CustomerId>::max()) {
          return ReceiptError(
              index, Status::InvalidArgument("customer id does not fit"));
        }
        receipt->customer = static_cast<retail::CustomerId>(*value);
        have_customer = true;
      } else if (*key == "day") {
        Result<int64_t> value = scanner->Int();
        if (!value.ok()) return ReceiptError(index, value.status());
        if (*value < std::numeric_limits<retail::Day>::min() ||
            *value > std::numeric_limits<retail::Day>::max()) {
          return ReceiptError(
              index, Status::InvalidArgument("day does not fit in int32"));
        }
        receipt->day = static_cast<retail::Day>(*value);
        have_day = true;
      } else if (*key == "spend") {
        Result<double> value = scanner->Number();
        if (!value.ok()) return ReceiptError(index, value.status());
        receipt->spend = *value;
      } else if (*key == "items") {
        CHURNLAB_RETURN_NOT_OK(scanner->Expect('['));
        if (!scanner->Consume(']')) {
          receipt->items.reserve(scanner->FlatArrayLengthHint());
          for (;;) {
            Result<uint64_t> item = scanner->Uint();
            if (!item.ok()) return ReceiptError(index, item.status());
            if (*item > std::numeric_limits<retail::ItemId>::max()) {
              return ReceiptError(
                  index, Status::InvalidArgument("item id does not fit"));
            }
            receipt->items.push_back(static_cast<retail::ItemId>(*item));
            if (scanner->Consume(']')) break;
            CHURNLAB_RETURN_NOT_OK(scanner->Expect(','));
          }
        }
      } else {
        return ReceiptError(index, Status::InvalidArgument(
                                       "unknown receipt field '" +
                                       std::string(*key) + "'"));
      }
      if (scanner->Consume('}')) break;
      CHURNLAB_RETURN_NOT_OK(scanner->Expect(','));
    }
  }
  if (!have_customer) {
    return ReceiptError(index,
                        Status::InvalidArgument("missing 'customer'"));
  }
  if (!have_day) {
    return ReceiptError(index, Status::InvalidArgument("missing 'day'"));
  }
  return Status::OK();
}

void WriteStatusJson(const Status& status, obs::JsonWriter* json) {
  json->BeginObject()
      .Key("code")
      .String(StatusCodeToString(status.code()))
      .Key("message")
      .String(status.message())
      .EndObject();
}

}  // namespace

Result<std::vector<retail::Receipt>> ParseReceiptBatch(std::string_view body,
                                                       size_t max_receipts) {
  Scanner scanner(body);
  CHURNLAB_RETURN_NOT_OK(scanner.Expect('{'));
  CHURNLAB_ASSIGN_OR_RETURN(const std::string_view key, scanner.Key());
  if (key != "receipts") {
    return Status::InvalidArgument("ingest body must hold one 'receipts' key");
  }
  CHURNLAB_RETURN_NOT_OK(scanner.Expect(':'));
  CHURNLAB_RETURN_NOT_OK(scanner.Expect('['));
  std::vector<retail::Receipt> receipts;
  // Every receipt is one flat object, so the body's '{' count (the
  // envelope's included) bounds the batch; capped so a hostile body cannot
  // size the allocation.
  receipts.reserve(std::min<size_t>(
      static_cast<size_t>(std::count(body.begin(), body.end(), '{')),
      max_receipts));
  if (!scanner.Consume(']')) {
    for (;;) {
      if (receipts.size() >= max_receipts) {
        return Status::OutOfRange("ingest batch exceeds " +
                                  std::to_string(max_receipts) +
                                  " receipts");
      }
      retail::Receipt receipt;
      CHURNLAB_RETURN_NOT_OK(
          ParseOneReceipt(&scanner, receipts.size(), &receipt));
      receipts.push_back(std::move(receipt));
      if (scanner.Consume(']')) break;
      CHURNLAB_RETURN_NOT_OK(scanner.Expect(','));
    }
  }
  CHURNLAB_RETURN_NOT_OK(scanner.Expect('}'));
  if (!scanner.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after the JSON body");
  }
  return receipts;
}

std::string WriteBatchReportJson(const serve::BatchReport& report,
                                 uint64_t first_sequence) {
  obs::JsonWriter json;
  json.BeginObject()
      .Key("receipts_ingested")
      .Uint(report.receipts_ingested)
      .Key("new_customers")
      .Uint(report.new_customers)
      .Key("sequence")
      .Uint(first_sequence);
  json.Key("alerts").BeginArray();
  for (const serve::FleetAlert& alert : report.alerts) {
    json.BeginObject()
        .Key("customer")
        .Uint(alert.customer)
        .Key("batch_index")
        .Uint(alert.batch_index)
        .Key("kind")
        .String(alert.alert.kind == core::StabilityAlert::Kind::kSharpDrop
                    ? "sharp_drop"
                    : "low_stability")
        .Key("window")
        .Int(alert.alert.window_index)
        .Key("stability")
        .Double(alert.alert.stability)
        .Key("drop")
        .Double(alert.alert.drop)
        .EndObject();
  }
  json.EndArray();
  json.Key("rejected").BeginArray();
  for (const serve::RejectedReceipt& rejected : report.rejected) {
    json.BeginObject()
        .Key("customer")
        .Uint(rejected.customer)
        .Key("batch_index")
        .Uint(rejected.batch_index)
        .Key("day")
        .Int(rejected.day)
        .Key("reason");
    WriteStatusJson(rejected.reason, &json);
    json.EndObject();
  }
  json.EndArray();
  json.Key("poisoned").BeginArray();
  for (const serve::PoisonedShard& poisoned : report.poisoned) {
    json.BeginObject().Key("shard").Uint(poisoned.shard).Key("reason");
    WriteStatusJson(poisoned.reason, &json);
    json.EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string WriteCustomerJson(const serve::CustomerQuery& query) {
  obs::JsonWriter json;
  json.BeginObject()
      .Key("customer")
      .Uint(query.customer)
      .Key("shard")
      .Uint(query.shard)
      .Key("stability")
      .Double(query.stability)
      .Key("state_bytes")
      .Uint(query.state_bytes)
      .EndObject();
  return json.str();
}

std::string WriteHealthJson(const serve::FleetHealth& health) {
  obs::JsonWriter json;
  json.BeginObject()
      .Key("receipts_total")
      .Uint(health.receipts_total)
      .Key("customers_total")
      .Uint(health.customers_total)
      .Key("poisoned_shards")
      .Uint(health.poisoned_shards)
      .Key("queue_depth")
      .Uint(health.queue_depth);
  json.Key("shards").BeginArray();
  for (const serve::ShardHealthStats& shard : health.shards) {
    json.BeginObject()
        .Key("shard")
        .Uint(shard.shard)
        .Key("ok")
        .Bool(shard.status.ok())
        .Key("receipts")
        .Uint(shard.receipts)
        .Key("rejected")
        .Uint(shard.rejected)
        .Key("alerts")
        .Uint(shard.alerts)
        .Key("retries")
        .Uint(shard.retries)
        .Key("customers")
        .Uint(shard.customers)
        .Key("last_batch_receipts")
        .Uint(shard.last_batch_receipts);
    if (!shard.status.ok()) {
      json.Key("error").String(shard.status.ToString());
    }
    json.EndObject();
  }
  json.EndArray().EndObject();
  return json.str();
}

std::string WriteErrorJson(const Status& status) {
  obs::JsonWriter json;
  json.BeginObject().Key("error");
  WriteStatusJson(status, &json);
  json.EndObject();
  return json.str();
}

std::string WriteSnapshotJson(std::string_view path) {
  obs::JsonWriter json;
  json.BeginObject().Key("ok").Bool(true).Key("path").String(path).EndObject();
  return json.str();
}

}  // namespace net
}  // namespace churnlab
