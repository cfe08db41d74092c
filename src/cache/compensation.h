#ifndef AGGCACHE_CACHE_COMPENSATION_H_
#define AGGCACHE_CACHE_COMPENSATION_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "objectaware/join_pruning.h"
#include "objectaware/matching_dependency.h"
#include "query/executor.h"

namespace aggcache {

/// Work counters for one compensation pass.
struct CompensationStats {
  uint64_t subjoins_considered = 0;
  uint64_t subjoins_executed = 0;
  uint64_t subjoins_pruned = 0;
  /// Delta rows read across all executed subjoins — the ledger's measure of
  /// how much delta volume this compensation had to chew through.
  uint64_t rows_scanned = 0;
};

/// A cache entry's delta compensation memo (DESIGN.md §4a): the merged
/// compensation result over a prefix of every delta partition, so a later
/// hit aggregates only the rows appended since. It is taken only at a
/// settled snapshot — no exclusion list, and no create or invalidate tid
/// past it in any bound partition — so every prefix row looks the same to
/// each later snapshot until an invalidation count moves or a merge resets
/// the memo.
struct DeltaMemo {
  /// Merged delta compensation over the prefixes, before HAVING.
  AggregateResult result;
  /// The snapshot the memo was taken at; older readers cannot use it.
  Tid read_tid = 0;

  /// State of one (query table, partition group) when the memo was taken.
  struct Part {
    uint32_t delta_rows = 0;  ///< Prefix length: the delta rows covered.
    uint64_t main_invalidations = 0;
    uint64_t delta_invalidations = 0;
    /// Tid range of the prefix rows per MD tid column of the table, in
    /// ascending column order.
    std::vector<TidRange> prefix_tids;
  };
  std::vector<std::vector<Part>> parts;  ///< [query table][group]
};

/// Where a cache entry publishes its memo: an immutable DeltaMemo swapped
/// under its own small mutex, never under the entry's value lock. Readers
/// take a reference and use it without any lock.
class DeltaMemoSlot {
 public:
  std::shared_ptr<const DeltaMemo> Load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return memo_;
  }

  /// Installs `memo` unless a concurrent pass already published one that
  /// is newer. `base` is the memo the publishing pass loaded (or null).
  void Publish(std::shared_ptr<const DeltaMemo> memo, const DeltaMemo* base) {
    std::lock_guard<std::mutex> lock(mu_);
    if (memo_ == nullptr || memo_.get() == base ||
        memo_->read_tid < memo->read_tid) {
      memo_ = std::move(memo);
    }
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    memo_.reset();
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const DeltaMemo> memo_;
};

/// The answer of one delta compensation pass: the memo it built on or
/// took (null without one) plus the rows it aggregated beyond that memo.
struct DeltaCompensation {
  std::shared_ptr<const DeltaMemo> memo;
  AggregateResult fresh;

  /// Unions both parts into `result`.
  void MergeInto(AggregateResult* result) const {
    if (memo != nullptr) result->MergeFrom(memo->result);
    result->MergeFrom(fresh);
  }
};

/// Delta compensation (Section 2.3.2): executes the non-all-main subjoin
/// combinations under `snapshot`, skipping those the pruner proves empty
/// and, when `use_pushdown` is set, applying MD-derived local predicates to
/// the non-prunable ones (Section 5.3). The union of the returned result
/// with the cached main result is the consistent query answer.
///
/// With a `memo` slot, a snapshot at or after a still-valid memo
/// aggregates only the rows appended since: every kept combination expands
/// over each delta's (prefix, suffix) split, the all-prefix term is the
/// memo, and the terms with at least one suffix run with row-range
/// restrictions, each pruned by Eq. 5 on slice tid ranges at
/// PruneLevel::kFull. A pass at a settled snapshot republishes the memo
/// when its prefix grew (or takes it after a full pass).
StatusOr<DeltaCompensation> DeltaCompensate(
    Executor& executor, const BoundQuery& bound,
    const std::vector<MdBinding>& mds, JoinPruner& pruner, bool use_pushdown,
    Snapshot snapshot, CompensationStats* stats,
    DeltaMemoSlot* memo = nullptr);

/// Contribution of specific rows of one main partition to a single-table
/// aggregate query (filters applied). Used by main compensation to subtract
/// invalidated rows from a cached entry.
StatusOr<AggregateResult> ComputeRowsContribution(const BoundQuery& bound,
                                                  size_t group_index,
                                                  std::span<const uint32_t> rows);

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_COMPENSATION_H_
