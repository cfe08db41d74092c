#include "cache/compensation.h"

#include "objectaware/predicate_pushdown.h"
#include "obs/engine_metrics.h"
#include "obs/trace_recorder.h"
#include "verify/fault_injector.h"

namespace aggcache {

StatusOr<AggregateResult> DeltaCompensate(Executor& executor,
                                          const BoundQuery& bound,
                                          const std::vector<MdBinding>& mds,
                                          JoinPruner& pruner,
                                          bool use_pushdown, Snapshot snapshot,
                                          CompensationStats* stats) {
  // Prune decisions (and pushdown derivation) stay on the calling thread:
  // they are cheap, and JoinPruner accumulates stats that must stay
  // race-free. Only the surviving subjoins fan out.
  std::vector<Executor::SubjoinTask> tasks;
  for (SubjoinCombination& combo :
       EnumerateCompensationCombinations(bound.tables)) {
    if (stats != nullptr) ++stats->subjoins_considered;
    PruneDecision decision = pruner.ShouldPrune(bound, mds, combo);
    if (decision.pruned) {
      if (stats != nullptr) ++stats->subjoins_pruned;
      RecordSubjoin(bound, mds, combo, "delta-compensation", decision, {});
      continue;
    }
    std::vector<FilterPredicate> extra;
    if (use_pushdown) {
      extra = DerivePushdownFilters(bound, mds, combo);
      if (!extra.empty()) {
        EngineMetrics::Get().pushdown_predicates->Increment(extra.size());
      }
    }
    RecordSubjoin(bound, mds, combo, "delta-compensation", decision, extra);
    tasks.push_back(Executor::SubjoinTask{std::move(combo), std::move(extra),
                                          /*restriction=*/{}});
  }

  AggregateResult result(bound.aggregates.size());
  if (tasks.empty()) return result;
  // `cache.delta_comp` lets the harnesses hold a query inside delta
  // compensation deterministically (kDelay) so the active-query registry
  // and remote cancellation can be exercised against a live phase.
  RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("cache.delta_comp"));
  ExecutorStats total;
  ASSIGN_OR_RETURN(
      std::vector<AggregateResult> partials,
      executor.ExecuteSubjoins(bound, tasks, snapshot, "delta-comp", &total));
  if (stats != nullptr) {
    stats->subjoins_executed += tasks.size();
    stats->rows_scanned += total.rows_scanned;
  }
  // Merge in enumeration order so results are deterministic at any thread
  // count (floating-point sums are order-sensitive).
  for (const AggregateResult& partial : partials) result.MergeFrom(partial);
  return result;
}

StatusOr<AggregateResult> ComputeRowsContribution(
    const BoundQuery& bound, size_t group_index,
    std::span<const uint32_t> rows) {
  if (bound.tables.size() != 1) {
    return Status::InvalidArgument(
        "row-level contribution is defined for single-table queries");
  }
  const Partition& main = bound.tables[0]->group(group_index).main;
  AggregateResult result(bound.aggregates.size());
  GroupKey key;
  key.values.resize(bound.group_by.size());
  std::vector<Value> inputs(bound.aggregates.size());
  for (uint32_t r : rows) {
    bool pass = true;
    for (const BoundQuery::BoundFilter& f : bound.filters) {
      if (!EvalCompare(f.op, main.column(f.column).GetValue(r), f.operand)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    for (size_t g = 0; g < bound.group_by.size(); ++g) {
      key.values[g] = main.column(bound.group_by[g].column).GetValue(r);
    }
    for (size_t a = 0; a < bound.aggregates.size(); ++a) {
      const BoundQuery::BoundAggregate& agg = bound.aggregates[a];
      inputs[a] = agg.is_count_star ? Value()
                                    : main.column(agg.column).GetValue(r);
    }
    result.Accumulate(key, inputs);
  }
  return result;
}

}  // namespace aggcache
