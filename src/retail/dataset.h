#ifndef CHURNLAB_RETAIL_DATASET_H_
#define CHURNLAB_RETAIL_DATASET_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "retail/item_dictionary.h"
#include "retail/taxonomy.h"
#include "retail/transaction_store.h"
#include "retail/types.h"

namespace churnlab {
namespace retail {

/// Ground-truth label of one customer.
struct CustomerLabel {
  Cohort cohort = Cohort::kUnlabeled;
  /// Month at which attrition was injected; -1 for non-defectors / unknown.
  int32_t attrition_onset_month = -1;
};

/// Summary statistics of a dataset, printable next to the paper's §3
/// description (6M customers, 4M products, 3,388 segments, 28 months).
struct DatasetStats {
  size_t num_customers = 0;
  size_t num_receipts = 0;
  size_t num_distinct_items = 0;
  size_t num_segments = 0;
  size_t num_departments = 0;
  Day min_day = 0;
  Day max_day = -1;
  int32_t num_months = 0;
  double avg_basket_size = 0.0;
  double avg_receipts_per_customer = 0.0;
  double avg_spend_per_receipt = 0.0;
  size_t num_loyal = 0;
  size_t num_defecting = 0;
  size_t num_unlabeled = 0;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

/// \brief A complete attrition-analysis corpus: receipts + item dictionary +
/// taxonomy + cohort labels.
///
/// This is the unit the models and experiments consume, and the unit that is
/// serialized. Mirrors the paper's inputs: anonymized timestamped receipts,
/// a product taxonomy, and retailer-provided loyal/defecting customer ids.
///
/// Serialization formats:
///  - CSV, three files under a prefix: `<prefix>.receipts.csv`
///    (customer,day,spend,items where items are ';'-separated names),
///    `<prefix>.taxonomy.csv` (item,segment,department) and
///    `<prefix>.labels.csv` (customer,cohort,onset_month);
///  - a single binary file (`.clb`) with dictionary-encoded receipts —
///    compact and fast, the preferred interchange format.
class Dataset {
 public:
  Dataset() = default;

  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  TransactionStore& mutable_store() { return store_; }
  const TransactionStore& store() const { return store_; }

  ItemDictionary& mutable_items() { return items_; }
  const ItemDictionary& items() const { return items_; }

  Taxonomy& mutable_taxonomy() { return taxonomy_; }
  const Taxonomy& taxonomy() const { return taxonomy_; }

  /// Sets the ground-truth label of `customer` (overwrites).
  void SetLabel(CustomerId customer, CustomerLabel label);

  /// Label of `customer`; kUnlabeled default when absent.
  CustomerLabel LabelOf(CustomerId customer) const;

  const std::unordered_map<CustomerId, CustomerLabel>& labels() const {
    return labels_;
  }

  /// Customers carrying the given cohort label, ascending id order.
  std::vector<CustomerId> CustomersWithCohort(Cohort cohort) const;

  /// Finalizes the store; call once ingestion is done.
  void Finalize() { store_.Finalize(); }

  /// Computes summary statistics. Requires a finalized store.
  DatasetStats ComputeStats() const;

  /// Returns a new dataset containing only receipts with day in
  /// [begin_day, end_day). Dictionary, taxonomy and all labels are copied
  /// unchanged; customers whose receipts all fall outside the range simply
  /// have no history. Use for temporal train/test splits and "data through
  /// month m" views. Requires a finalized store; the result is finalized.
  Result<Dataset> FilterByDayRange(Day begin_day, Day end_day) const;

  /// Returns a new dataset restricted to `customers` (receipts and labels;
  /// dictionary and taxonomy copied unchanged). Unknown ids are ignored.
  /// Requires a finalized store; the result is finalized.
  Result<Dataset> FilterCustomers(
      const std::vector<CustomerId>& customers) const;

  /// Writes `<prefix>.receipts.csv`, `<prefix>.taxonomy.csv`,
  /// `<prefix>.labels.csv`.
  Status SaveCsv(const std::string& prefix) const;

  /// Reads the three CSV files written by SaveCsv. The result is finalized.
  static Result<Dataset> LoadCsv(const std::string& prefix);

  /// Writes the single-file binary format.
  Status SaveBinary(const std::string& path) const;

  /// Reads a binary file written by SaveBinary. The result is finalized.
  /// The receipts are decoded on every core, in chunks of 1,024, straight
  /// into one exactly sized vector. A file with bad receipts fails with
  /// the status of the first of them, as a receipt-by-receipt decode would.
  static Result<Dataset> LoadBinary(const std::string& path);

 private:
  TransactionStore store_;
  ItemDictionary items_;
  Taxonomy taxonomy_;
  std::unordered_map<CustomerId, CustomerLabel> labels_;
};

/// Round-trip helpers for Cohort <-> text ("loyal", "defecting",
/// "unlabeled").
std::string_view CohortToString(Cohort cohort);
Result<Cohort> CohortFromString(std::string_view text);

}  // namespace retail
}  // namespace churnlab

#endif  // CHURNLAB_RETAIL_DATASET_H_
