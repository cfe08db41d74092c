#ifndef AGGCACHE_OBJECTAWARE_JOIN_PRUNING_H_
#define AGGCACHE_OBJECTAWARE_JOIN_PRUNING_H_

#include <string>
#include <vector>

#include "objectaware/matching_dependency.h"
#include "query/executor.h"
#include "query/subjoin.h"

namespace aggcache {

/// How aggressively subjoins are pruned during delta compensation. The
/// levels mirror the paper's Section 6.4 strategies.
enum class PruneLevel : uint8_t {
  kNone = 0,             ///< Execute every compensation subjoin.
  kEmptyPartitions = 1,  ///< Skip subjoins containing an empty partition.
  kFull = 2,             ///< Empty + MD tid-range + aging-group pruning.
};

const char* PruneLevelToString(PruneLevel level);

/// Outcome of a pruning test for one subjoin combination.
struct PruneDecision {
  bool pruned = false;
  /// Which rule fired: "empty-partition", "aging-group", "tid-range", or
  /// empty when not pruned.
  std::string reason;
};

/// Per-query statistics for benches and tests.
struct PruneStats {
  uint64_t considered = 0;
  uint64_t pruned_empty = 0;
  uint64_t pruned_aging = 0;
  uint64_t pruned_tid_range = 0;

  uint64_t total_pruned() const {
    return pruned_empty + pruned_aging + pruned_tid_range;
  }

  PruneStats& operator+=(const PruneStats& other) {
    considered += other.considered;
    pruned_empty += other.pruned_empty;
    pruned_aging += other.pruned_aging;
    pruned_tid_range += other.pruned_tid_range;
    return *this;
  }
};

/// Dynamic join partition pruner (Sections 4 and 5.1).
///
/// For a subjoin combination it applies, in order:
///  1. empty-partition pruning (a cheap dynamic rule: any empty partition
///     makes the subjoin empty),
///  2. logical aging-group pruning: with a consistent aging definition,
///     matching tuples share a temperature, so a hot partition of one table
///     never joins a cold partition of another (Section 5.4),
///  3. the MD tid-range prefilter of Eq. 5: for each join edge with a
///     matching dependency, the subjoin is empty when the tid ranges of the
///     two partitions (dictionary min/max) do not overlap.
///
/// Rules 2 and 3 are only consulted at PruneLevel::kFull; rule 1 also runs
/// at kEmptyPartitions. Every rule is conservative: a pruned subjoin is
/// provably empty, so pruning never changes query results.
class JoinPruner {
 public:
  JoinPruner(const Database* db, PruneLevel level);

  /// Decides whether `combination` can be skipped. `mds` must come from
  /// ResolveMds(bound) for the same bound query.
  PruneDecision ShouldPrune(const BoundQuery& bound,
                            const std::vector<MdBinding>& mds,
                            const SubjoinCombination& combination);

  PruneLevel level() const { return level_; }
  const PruneStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PruneStats(); }

 private:
  const Database* db_;
  PruneLevel level_;
  PruneStats stats_;
};

/// The Eq. 5 prefilter in isolation: true when the tid ranges of the two
/// partitions' tid columns are disjoint (or either partition is empty), so
/// the MD-joined pair is provably empty. Exposed for tests and the merge-
/// synchronization ablation.
bool TidRangesDisjoint(const Partition& left, size_t left_tid_column,
                       const Partition& right, size_t right_tid_column);

/// Closed [min, max] range of one tid column's values over a slice of a
/// partition's rows; empty when the slice has no rows. Incremental delta
/// compensation applies Eq. 5 to slices — a delta's memoized prefix and
/// the rows appended since — not only to whole partitions.
struct TidRange {
  int64_t min = 1;
  int64_t max = 0;

  bool empty() const { return min > max; }
  void Extend(const TidRange& other);

  /// The whole partition's range, read from the column dictionary.
  static TidRange OfPartition(const Partition& partition, size_t column);
  /// Rows [begin, end) of `partition`, by scanning them.
  static TidRange OfRows(const Partition& partition, size_t column,
                         uint32_t begin, uint32_t end);
};

/// Eq. 5 on two slices: true when either is empty or they do not overlap.
bool TidRangesDisjoint(const TidRange& left, const TidRange& right);

}  // namespace aggcache

#endif  // AGGCACHE_OBJECTAWARE_JOIN_PRUNING_H_
