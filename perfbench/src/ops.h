#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The three workloads; see perfbench/README.md for why each exists.
enum class Workload : uint8_t { kErpReporting, kChbenchWide, kErpIngest };

const char* WorkloadName(Workload workload);
/// False when `name` names no workload.
bool ParseWorkload(const std::string& name, Workload* workload);

/// One new CH-benCHmark order: an `orders` row, its `neworder` row and its
/// `orderline` rows, inserted in one atomic write scope.
struct NewOrder {
  int64_t o_id = 0;
  int64_t c_id = 0;
  int64_t no_id = 0;
  int64_t first_ol_id = 0;
  struct Line {
    int64_t stock_id = 0;
    double amount = 0;
  };
  std::vector<Line> lines;
};

/// One step of the closed-loop client. Every input the engine sees is
/// fixed here, before the first timed operation.
struct Op {
  enum class Kind : uint8_t { kRead, kWrite, kMerge };
  enum class Write : uint8_t { kNone, kBusinessObject, kLateItems,
                               kPriceUpdate, kNewOrder };
  Kind kind = Kind::kRead;
  Write write = Write::kNone;
  /// kRead: index into the workload's query list.
  uint8_t query = 0;
  /// kRead: re-run uncached under the same transaction and compare
  /// (outside the timed region).
  bool verify = false;
  /// kBusinessObject / kLateItems: seed of the generator's Rng.
  uint64_t rng_seed = 0;
  /// kPriceUpdate: Item primary key and new price.
  int64_t pk = 0;
  double price = 0;
  /// kNewOrder: index into OpSequence::orders.
  uint32_t order = 0;
};

/// Facts about the loaded dataset that the generator needs to produce
/// valid keys. Derived from the dataset config and row counts after set-up,
/// so they depend only on the seed.
struct DatasetFacts {
  size_t erp_main_headers = 0;
  int64_t erp_main_items = 0;
  int64_t ch_orders = 0;
  int64_t ch_customers = 0;
  int64_t ch_stock = 0;
  int64_t ch_neworders = 0;
  int64_t ch_orderlines = 0;
};

struct OpSequence {
  std::vector<Op> ops;
  std::vector<NewOrder> orders;
  size_t reads = 0;
  size_t writes = 0;
  size_t merges = 0;
  /// erp_ingest: a merge follows every this many business objects.
  size_t merge_every_objects = 0;
};

/// Number of operations in a phase of `seconds` seconds: a fixed rate per
/// workload (calibrated so the phase lasts about `seconds` on a 4-vCPU x86
/// host) times `seconds`, raised so the phase holds at least 1,000 reads.
/// Both commits under comparison therefore do the same work.
size_t OpsForSeconds(Workload workload, double seconds);

/// Builds the operation sequence. Pure function of its arguments.
OpSequence GenerateOps(Workload workload, uint64_t seed, size_t num_ops,
                       const DatasetFacts& facts);

/// FNV-1a over every field of every operation, for the determinism test.
uint64_t HashOps(const OpSequence& sequence);

/// Human-readable operation mix, e.g. "97% read / 3% business object".
std::string DescribeMix(const OpSequence& sequence);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
