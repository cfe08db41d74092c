#ifndef AGGCACHE_QUERY_EXECUTOR_H_
#define AGGCACHE_QUERY_EXECUTOR_H_

#include <optional>
#include <vector>

#include "query/aggregate_query.h"
#include "query/aggregate_result.h"
#include "query/subjoin.h"
#include "storage/database.h"
#include "txn/types.h"

namespace aggcache {

/// An AggregateQuery with every table and column reference resolved against
/// the catalog. Binding happens once per execution; the pruning and
/// pushdown modules consume the same structure.
struct BoundQuery {
  const AggregateQuery* query = nullptr;
  std::vector<const Table*> tables;

  struct BoundJoin {
    size_t outer_table = 0;  ///< Earlier table in query order.
    size_t outer_column = 0;
    size_t inner_table = 0;  ///< Later table in query order.
    size_t inner_column = 0;
  };
  std::vector<BoundJoin> joins;

  struct BoundFilter {
    size_t table = 0;
    size_t column = 0;
    CompareOp op = CompareOp::kEq;
    Value operand;
  };
  std::vector<BoundFilter> filters;

  struct BoundGroupBy {
    size_t table = 0;
    size_t column = 0;
  };
  std::vector<BoundGroupBy> group_by;

  struct BoundAggregate {
    AggregateFunction fn = AggregateFunction::kSum;
    size_t table = 0;
    size_t column = 0;
    bool is_count_star = false;
  };
  std::vector<BoundAggregate> aggregates;

  /// Validates `query` and resolves all references.
  static StatusOr<BoundQuery> Bind(const Database& db,
                                   const AggregateQuery& query);
};

/// Work counters of executor calls; callers that want them pass a block
/// per call (every call also feeds the metrics registry's
/// aggcache_executor_* counters).
struct ExecutorStats {
  uint64_t subjoins_executed = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_selected = 0;
  uint64_t tuples_joined = 0;
  /// 1024-row blocks processed by the batched selection kernels.
  uint64_t selection_batches = 0;
  /// Join levels executed through the code-space hash table.
  uint64_t code_joins = 0;
  /// Aggregations that packed all group-by codes into one 64-bit key.
  uint64_t packed_groupings = 0;
  /// Aggregations that fell back to materialized group keys (> 64 bits).
  uint64_t fallback_groupings = 0;

  /// Folds another stats block in; used to merge per-task counters
  /// collected by parallel subjoin fan-outs into the caller's total.
  void MergeFrom(const ExecutorStats& other) {
    subjoins_executed += other.subjoins_executed;
    rows_scanned += other.rows_scanned;
    rows_selected += other.rows_selected;
    tuples_joined += other.tuples_joined;
    selection_batches += other.selection_batches;
    code_joins += other.code_joins;
    packed_groupings += other.packed_groupings;
    fallback_groupings += other.fallback_groupings;
  }
};

/// Aggregate query executor over the main-delta columnar store: per-table
/// selection (with dictionary-range static pruning of filters), left-deep
/// hash joins in query-table order, and hash aggregation.
///
/// Threading model: ExecuteSubjoin is const and re-entrant — concurrent
/// calls on one instance are safe; each call's counters go to its own
/// ExecutorStats out-parameter when given, and always into the metrics
/// registry. Every subjoin set the engine runs — uncached unions, entry builds, delta
/// compensation, main correction and the merge fold — fans out through
/// ExecuteSubjoins, which returns partials in task order so callers merge
/// them in enumeration order and results are deterministic at any thread
/// count.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// Half-open row-id range [begin, end) of one partition.
  struct RowRange {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  /// Optional per-table row restriction for ExecuteSubjoin. When `rows[t]`
  /// is set, table t's selection considers only those row ids of its
  /// partition; when `ranges[t]` is set instead, only the rows of that
  /// range. Visibility and filters still apply on top. The incremental
  /// main compensation of join entries restricts some tables to their
  /// invalidated ("negative delta") rows; incremental delta compensation
  /// restricts deltas to their memoized prefix or to the rows appended
  /// since.
  struct RowRestriction {
    std::vector<std::optional<std::vector<uint32_t>>> rows;
    std::vector<std::optional<RowRange>> ranges;
    /// When true, tables restricted by `rows` skip the per-row visibility
    /// check: the caller vouches for the row set. Main compensation passes
    /// the rows invalidated since the entry snapshot, which are exactly the
    /// rows a current snapshot would hide.
    bool bypass_visibility_for_restricted = false;
  };

  /// Executes the query over one subjoin combination under `snapshot`.
  /// `extra_filters` carries pushed-down predicates (Section 5.3) that
  /// apply only to this subjoin; `restriction`, when non-null, limits the
  /// candidate rows per table. Work counters accumulate into `stats` when
  /// given.
  StatusOr<AggregateResult> ExecuteSubjoin(
      const BoundQuery& bound, const SubjoinCombination& combination,
      Snapshot snapshot,
      const std::vector<FilterPredicate>& extra_filters = {},
      const RowRestriction* restriction = nullptr,
      ExecutorStats* stats = nullptr) const;

  /// One subjoin of a fan-out. An empty `restriction` leaves every table
  /// unrestricted.
  struct SubjoinTask {
    SubjoinCombination combo;
    std::vector<FilterPredicate> extra_filters;
    RowRestriction restriction;
  };

  /// The subjoin fan-out: runs every task across the global ThreadPool,
  /// each on a worker that carries the caller's QueryContext and a
  /// kSubjoinTask span (detail `span_detail`) under the caller's span, and
  /// adds each finished task's subjoin and rows scanned to that
  /// QueryContext. Per-task counters merge into `total`, when given,
  /// all-or-none before any error check, because every task already flushed
  /// them into the metrics registry. Returns the first failed task's
  /// status, or one partial per task in task order.
  StatusOr<std::vector<AggregateResult>> ExecuteSubjoins(
      const BoundQuery& bound, const std::vector<SubjoinTask>& tasks,
      Snapshot snapshot, const char* span_detail,
      ExecutorStats* total = nullptr) const;

  /// Uncached execution (Section 2.3.1): evaluates and unions every
  /// partition combination, fanning the subjoins out across the global
  /// ThreadPool and merging partials in enumeration order.
  StatusOr<AggregateResult> ExecuteUncached(const AggregateQuery& query,
                                            Snapshot snapshot) const;

  /// Same, for an already-bound query — used by callers that bind first to
  /// learn the table set (and take table locks) before executing.
  StatusOr<AggregateResult> ExecuteUncachedBound(const BoundQuery& bound,
                                                 Snapshot snapshot) const;

 private:
  const Database* db_;
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_EXECUTOR_H_
