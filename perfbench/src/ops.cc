#include "ops.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <random>

namespace perfbench {
namespace {

/// Reads re-run uncached and compared per phase. A fixed count, not a
/// share, so verification time does not grow with the phase.
constexpr size_t kVerifiedReads = 32;
constexpr size_t kMinReads = 1000;

struct WorkloadShape {
  const char* name;
  /// Operations per second of phase length; calibrated on a 4-vCPU x86
  /// host so a phase lasts about as long as asked at the commit that
  /// defined the benchmark.
  double ops_per_second;
  double read_fraction;
};

constexpr WorkloadShape kShapes[] = {
    {"erp_reporting", 2900, 0.97},
    {"chbench_wide", 700, 0.80},
    {"erp_ingest", 1000, 0.10},
};

const WorkloadShape& Shape(Workload workload) {
  return kShapes[static_cast<size_t>(workload)];
}

/// Positions [0, block) shuffled; the first k mark one operation kind. Fixed
/// counts per block keep the mix identical across seeds, so seeds change
/// which operations run where but not how many of each.
std::vector<size_t> ShuffledBlock(size_t block, std::mt19937_64& rng) {
  std::vector<size_t> slots(block);
  std::iota(slots.begin(), slots.end(), size_t{0});
  std::shuffle(slots.begin(), slots.end(), rng);
  return slots;
}

int64_t UniformInt(std::mt19937_64& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

double UniformDouble(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

Op Read(uint8_t query) {
  Op op;
  op.kind = Op::Kind::kRead;
  op.query = query;
  return op;
}

Op Write(Op::Write write) {
  Op op;
  op.kind = Op::Kind::kWrite;
  op.write = write;
  return op;
}

void GenerateErpReporting(size_t num_ops, std::mt19937_64& rng,
                          OpSequence* out) {
  // Per block of 100: 97 reads of the three fiscal-year queries in turn,
  // 3 business-object inserts at seeded positions. No merge: the Item delta
  // grows for the whole run.
  constexpr size_t kBlock = 100;
  constexpr size_t kWritesPerBlock = 3;
  size_t reads = 0;
  for (size_t base = 0; base < num_ops; base += kBlock) {
    std::vector<size_t> slots = ShuffledBlock(kBlock, rng);
    std::vector<bool> is_write(kBlock, false);
    for (size_t i = 0; i < kWritesPerBlock; ++i) is_write[slots[i]] = true;
    for (size_t i = 0; i < kBlock && base + i < num_ops; ++i) {
      if (is_write[i]) {
        Op op = Write(Op::Write::kBusinessObject);
        op.rng_seed = rng();
        out->ops.push_back(op);
      } else {
        out->ops.push_back(Read(static_cast<uint8_t>(reads++ % 3)));
      }
    }
  }
}

void GenerateChbenchWide(size_t num_ops, const DatasetFacts& facts,
                         std::mt19937_64& rng, OpSequence* out) {
  // Q5 and Q9 alternate; after every 4 reads one new order arrives.
  size_t reads = 0;
  int64_t next_ol_id = facts.ch_orderlines + 1;
  for (size_t i = 0; i < num_ops; ++i) {
    if (i % 5 != 4) {
      out->ops.push_back(Read(static_cast<uint8_t>(reads++ % 2)));
      continue;
    }
    NewOrder order;
    int64_t k = static_cast<int64_t>(out->orders.size());
    order.o_id = facts.ch_orders + 1 + k;
    order.no_id = facts.ch_neworders + 1 + k;
    order.c_id = UniformInt(rng, 1, facts.ch_customers);
    order.first_ol_id = next_ol_id;
    int64_t lines = UniformInt(rng, 1, 19);
    for (int64_t l = 0; l < lines; ++l) {
      order.lines.push_back({UniformInt(rng, 1, facts.ch_stock),
                             UniformDouble(rng, 1.0, 500.0)});
    }
    next_ol_id += lines;
    Op op = Write(Op::Write::kNewOrder);
    op.order = static_cast<uint32_t>(out->orders.size());
    out->orders.push_back(std::move(order));
    out->ops.push_back(op);
  }
}

void GenerateErpIngest(size_t num_ops, const DatasetFacts& facts,
                       std::mt19937_64& rng, OpSequence* out) {
  // Per block of 100: 10 reads, 72 business objects, 9 batches of 3 late
  // items, 9 Item.Price updates. A synchronized merge follows every
  // business object count equal to 10% of the initial main headers.
  constexpr size_t kBlock = 100;
  constexpr size_t kReads = 10, kObjects = 72, kLate = 9;
  out->merge_every_objects = std::max<size_t>(1, facts.erp_main_headers / 10);
  size_t reads = 0;
  size_t objects = 0;
  for (size_t base = 0; base < num_ops; base += kBlock) {
    std::vector<size_t> slots = ShuffledBlock(kBlock, rng);
    std::vector<Op> block(kBlock);
    for (size_t i = 0; i < kBlock; ++i) {
      size_t slot = slots[i];
      if (i < kReads) {
        block[slot] = Read(0);
      } else if (i < kReads + kObjects) {
        block[slot] = Write(Op::Write::kBusinessObject);
      } else if (i < kReads + kObjects + kLate) {
        block[slot] = Write(Op::Write::kLateItems);
      } else {
        block[slot] = Write(Op::Write::kPriceUpdate);
      }
    }
    for (size_t i = 0; i < kBlock && base + i < num_ops; ++i) {
      Op op = block[i];
      switch (op.write) {
        case Op::Write::kNone:
          op.query = static_cast<uint8_t>(reads++ % 3);
          break;
        case Op::Write::kBusinessObject:
        case Op::Write::kLateItems:
          op.rng_seed = rng();
          break;
        case Op::Write::kPriceUpdate:
          op.pk = UniformInt(rng, 1, facts.erp_main_items);
          op.price = UniformDouble(rng, 1.0, 1000.0);
          break;
        case Op::Write::kNewOrder:
          break;
      }
      out->ops.push_back(op);
      if (op.write == Op::Write::kBusinessObject &&
          ++objects % out->merge_every_objects == 0) {
        Op merge;
        merge.kind = Op::Kind::kMerge;
        out->ops.push_back(merge);
      }
    }
  }
}

void Mix(uint64_t* hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    *hash ^= bytes[i];
    *hash *= 1099511628211ull;
  }
}

template <typename T>
void MixValue(uint64_t* hash, const T& value) {
  Mix(hash, &value, sizeof(value));
}

}  // namespace

const char* WorkloadName(Workload workload) { return Shape(workload).name; }

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (size_t i = 0; i < std::size(kShapes); ++i) {
    if (name == kShapes[i].name) {
      *workload = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

size_t OpsForSeconds(Workload workload, double seconds) {
  const WorkloadShape& shape = Shape(workload);
  size_t by_time = static_cast<size_t>(std::llround(shape.ops_per_second *
                                                    seconds));
  size_t by_reads = static_cast<size_t>(
      std::ceil(static_cast<double>(kMinReads) / shape.read_fraction));
  return std::max(by_time, by_reads);
}

OpSequence GenerateOps(Workload workload, uint64_t seed, size_t num_ops,
                       const DatasetFacts& facts) {
  std::mt19937_64 rng(seed);
  OpSequence out;
  switch (workload) {
    case Workload::kErpReporting:
      GenerateErpReporting(num_ops, rng, &out);
      break;
    case Workload::kChbenchWide:
      GenerateChbenchWide(num_ops, facts, rng, &out);
      break;
    case Workload::kErpIngest:
      GenerateErpIngest(num_ops, facts, rng, &out);
      break;
  }
  std::vector<size_t> read_positions;
  for (size_t i = 0; i < out.ops.size(); ++i) {
    switch (out.ops[i].kind) {
      case Op::Kind::kRead:
        ++out.reads;
        read_positions.push_back(i);
        break;
      case Op::Kind::kWrite:
        ++out.writes;
        break;
      case Op::Kind::kMerge:
        ++out.merges;
        break;
    }
  }
  std::shuffle(read_positions.begin(), read_positions.end(), rng);
  read_positions.resize(std::min(read_positions.size(), kVerifiedReads));
  for (size_t i : read_positions) out.ops[i].verify = true;
  return out;
}

uint64_t HashOps(const OpSequence& sequence) {
  uint64_t hash = 14695981039346656037ull;
  for (const Op& op : sequence.ops) {
    MixValue(&hash, op.kind);
    MixValue(&hash, op.write);
    MixValue(&hash, op.query);
    MixValue(&hash, op.verify);
    MixValue(&hash, op.rng_seed);
    MixValue(&hash, op.pk);
    MixValue(&hash, op.price);
    MixValue(&hash, op.order);
  }
  for (const NewOrder& order : sequence.orders) {
    MixValue(&hash, order.o_id);
    MixValue(&hash, order.c_id);
    MixValue(&hash, order.no_id);
    MixValue(&hash, order.first_ol_id);
    for (const NewOrder::Line& line : order.lines) {
      MixValue(&hash, line.stock_id);
      MixValue(&hash, line.amount);
    }
  }
  return hash;
}

std::string DescribeMix(const OpSequence& sequence) {
  size_t counts[5] = {};
  for (const Op& op : sequence.ops) {
    if (op.kind == Op::Kind::kWrite) ++counts[static_cast<size_t>(op.write)];
  }
  const char* names[5] = {"", "business_object", "late_items_x3",
                          "price_update", "new_order"};
  std::string out = "read=" + std::to_string(sequence.reads);
  for (size_t i = 1; i < 5; ++i) {
    if (counts[i] > 0) {
      out.append(" ").append(names[i]).append("=");
      out.append(std::to_string(counts[i]));
    }
  }
  out += " merge=" + std::to_string(sequence.merges);
  return out;
}

}  // namespace perfbench
