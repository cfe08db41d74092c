#include "cache/compensation.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"
#include "objectaware/predicate_pushdown.h"
#include "obs/engine_metrics.h"
#include "obs/trace_recorder.h"
#include "verify/fault_injector.h"

namespace aggcache {

namespace {

/// The distinct MD tid columns of each query table, ascending: the columns
/// whose prefix ranges a DeltaMemo::Part keeps.
std::vector<std::vector<size_t>> MdTidColumns(
    const BoundQuery& bound, const std::vector<MdBinding>& mds) {
  std::vector<std::vector<size_t>> columns(bound.tables.size());
  for (const MdBinding& md : mds) {
    columns[md.left_table].push_back(md.left_tid_column);
    columns[md.right_table].push_back(md.right_tid_column);
  }
  for (std::vector<size_t>& c : columns) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
  }
  return columns;
}

size_t ColumnSlot(const std::vector<size_t>& columns, size_t column) {
  return static_cast<size_t>(
      std::lower_bound(columns.begin(), columns.end(), column) -
      columns.begin());
}

/// True when `memo` still describes the bound partitions: same partition
/// shape, no invalidation since and no delta shrink.
bool MemoMatchesPartitions(const DeltaMemo& memo, const BoundQuery& bound) {
  if (memo.parts.size() != bound.tables.size()) return false;
  for (size_t t = 0; t < bound.tables.size(); ++t) {
    const Table& table = *bound.tables[t];
    if (memo.parts[t].size() != table.num_groups()) return false;
    for (size_t g = 0; g < table.num_groups(); ++g) {
      const DeltaMemo::Part& part = memo.parts[t][g];
      const PartitionGroup& group = table.group(g);
      if (group.main.invalidation_count() != part.main_invalidations ||
          group.delta.invalidation_count() != part.delta_invalidations ||
          group.delta.num_rows() < part.delta_rows) {
        return false;
      }
    }
  }
  return true;
}

/// True when `snapshot` sees the memo's prefix rows exactly as the memo's
/// own snapshot did: it is no older, and excludes no tid inside the memo's
/// range.
bool SnapshotCoversMemo(const Snapshot& snapshot, const DeltaMemo& memo) {
  return snapshot.read_tid >= memo.read_tid &&
         (snapshot.excluded.empty() ||
          snapshot.excluded.front() > memo.read_tid);
}

/// True when every row of every bound partition looks to `snapshot` as it
/// will look to all later snapshots: nothing excluded, and no create or
/// invalidate tid past its read tid. Only then may a memo be taken.
bool SnapshotSettled(const BoundQuery& bound, const Snapshot& snapshot) {
  if (!snapshot.excluded.empty()) return false;
  for (const Table* table : bound.tables) {
    for (size_t g = 0; g < table->num_groups(); ++g) {
      for (const Partition* p : {&table->group(g).main, &table->group(g).delta}) {
        if (p->max_create_tid() > snapshot.read_tid ||
            p->max_invalidate_tid() > snapshot.read_tid) {
          return false;
        }
      }
    }
  }
  return true;
}

/// The rows of one delta partition a memo term reads, as a bit set: its
/// memoized prefix, the suffix appended since, or both (the whole delta,
/// one contiguous range).
using SliceSet = uint8_t;
constexpr SliceSet kPrefix = 1;
constexpr SliceSet kSuffix = 2;

/// Per (table, group) split of the delta at the memo's prefix, with the
/// tid ranges of both slices.
struct DeltaSplit {
  uint32_t prefix_rows = 0;
  uint32_t total_rows = 0;
  const std::vector<TidRange>* prefix_tids = nullptr;
  std::vector<TidRange> suffix_tids;
};

/// Appends the memo terms of one kept combination: every assignment of
/// (prefix, suffix) slices to its delta tables with at least one suffix,
/// skipping slices without rows and — when `slice_pruning` — terms whose
/// slices Eq. 5 proves disjoint on some MD edge. Surviving terms that
/// differ only in one table's slice then merge into one subjoin over that
/// table's whole delta: the same rows, one scan fewer.
void AppendMemoTerms(const BoundQuery& bound,
                     const std::vector<MdBinding>& mds,
                     const std::vector<std::vector<size_t>>& tid_columns,
                     const std::vector<std::vector<DeltaSplit>>& splits,
                     const SubjoinCombination& combo,
                     const std::vector<FilterPredicate>& extra,
                     bool slice_pruning,
                     std::vector<Executor::SubjoinTask>* tasks) {
  const size_t num_tables = bound.tables.size();
  // Delta tables whose slices are both non-empty choose freely; the rest
  // are forced to the one slice that has rows. Main tables keep 0.
  std::vector<size_t> free_tables;
  std::vector<SliceSet> base(num_tables, 0);
  bool forced_suffix = false;
  for (size_t t = 0; t < num_tables; ++t) {
    if (combo[t].kind != PartitionKind::kDelta) continue;
    const DeltaSplit& split = splits[t][combo[t].group];
    const bool has_prefix = split.prefix_rows > 0;
    const bool has_suffix = split.total_rows > split.prefix_rows;
    if (!has_prefix && !has_suffix) return;  // An empty delta joins nothing.
    base[t] = has_prefix ? kPrefix : kSuffix;
    if (has_prefix && has_suffix) free_tables.push_back(t);
    forced_suffix |= !has_prefix;
  }
  auto range_of = [&](size_t t, const std::vector<SliceSet>& slices,
                      size_t column) {
    if (combo[t].kind == PartitionKind::kMain) {
      return TidRange::OfPartition(bound.tables[t]->group(combo[t].group).main,
                                   column);
    }
    const DeltaSplit& split = splits[t][combo[t].group];
    size_t slot = ColumnSlot(tid_columns[t], column);
    return slices[t] == kPrefix ? (*split.prefix_tids)[slot]
                                : split.suffix_tids[slot];
  };
  std::vector<std::vector<SliceSet>> terms;
  for (uint32_t mask = 0; mask < (1u << free_tables.size()); ++mask) {
    if (mask == 0 && !forced_suffix) continue;  // The memo's own term.
    std::vector<SliceSet> slices = base;
    for (size_t i = 0; i < free_tables.size(); ++i) {
      if (mask & (1u << i)) slices[free_tables[i]] = kSuffix;
    }
    bool disjoint = false;
    for (size_t m = 0; slice_pruning && !disjoint && m < mds.size(); ++m) {
      disjoint = TidRangesDisjoint(
          range_of(mds[m].left_table, slices, mds[m].left_tid_column),
          range_of(mds[m].right_table, slices, mds[m].right_tid_column));
    }
    if (!disjoint) terms.push_back(std::move(slices));
  }
  for (bool merged = true; merged;) {
    merged = false;
    for (size_t i = 0; i < terms.size() && !merged; ++i) {
      for (size_t j = i + 1; j < terms.size() && !merged; ++j) {
        size_t differing = num_tables;
        size_t num_differing = 0;
        for (size_t t = 0; t < num_tables; ++t) {
          if (terms[i][t] != terms[j][t]) {
            differing = t;
            ++num_differing;
          }
        }
        if (num_differing != 1 ||
            (terms[i][differing] & terms[j][differing]) != 0) {
          continue;
        }
        terms[i][differing] |= terms[j][differing];
        terms.erase(terms.begin() + static_cast<ptrdiff_t>(j));
        merged = true;
      }
    }
  }
  for (const std::vector<SliceSet>& slices : terms) {
    Executor::SubjoinTask task{combo, extra, {}};
    task.restriction.ranges.resize(num_tables);
    for (size_t t = 0; t < num_tables; ++t) {
      if (combo[t].kind != PartitionKind::kDelta) continue;
      const DeltaSplit& split = splits[t][combo[t].group];
      task.restriction.ranges[t] = Executor::RowRange{
          slices[t] & kPrefix ? 0 : split.prefix_rows,
          slices[t] & kSuffix ? split.total_rows : split.prefix_rows};
    }
    tasks->push_back(std::move(task));
  }
}

/// EXPLAIN events of a combination the memo answers: the combination
/// itself (verdict kMemo) and one "delta-memo" event per slice term that
/// runs, its combination rendered with the row range of each delta.
void RecordMemoCombination(const BoundQuery& bound,
                           const std::vector<MdBinding>& mds,
                           const SubjoinCombination& combo,
                           const std::vector<FilterPredicate>& extra,
                           std::span<const Executor::SubjoinTask> terms) {
  QueryTrace* trace = TraceContext::Current();
  if (trace == nullptr) return;
  SubjoinTrace event = MakeSubjoinTrace(bound, mds, combo, "delta-compensation",
                                        PruneDecision{}, extra);
  event.verdict = SubjoinTrace::Verdict::kMemo;
  trace->subjoins.push_back(std::move(event));
  for (const Executor::SubjoinTask& term : terms) {
    SubjoinTrace term_event =
        MakeSubjoinTrace(bound, {}, combo, "delta-memo", PruneDecision{}, extra);
    std::vector<std::string> parts;
    for (size_t t = 0; t < combo.size(); ++t) {
      std::string part = StrFormat("g%u/%s", combo[t].group,
                                   PartitionKindToString(combo[t].kind));
      if (term.restriction.ranges[t].has_value()) {
        part += StrFormat(" rows %u-%u", term.restriction.ranges[t]->begin,
                          term.restriction.ranges[t]->end);
      }
      parts.push_back(std::move(part));
    }
    term_event.combination = "[" + StrJoin(parts, ", ") + "]";
    trace->subjoins.push_back(std::move(term_event));
  }
}

/// The memo a pass at a settled snapshot leaves behind: `base` (null after
/// a full pass) plus `fresh`, covering every delta row as of now.
std::shared_ptr<const DeltaMemo> MakeMemo(
    const BoundQuery& bound,
    const std::vector<std::vector<size_t>>& tid_columns,
    const DeltaMemo* base,
    const std::vector<std::vector<DeltaSplit>>& splits, Snapshot snapshot,
    AggregateResult fresh) {
  auto memo = std::make_shared<DeltaMemo>();
  memo->read_tid = snapshot.read_tid;
  if (base != nullptr) {
    memo->result = base->result;
    memo->result.MergeFrom(fresh);
  } else {
    memo->result = std::move(fresh);
  }
  memo->parts.resize(bound.tables.size());
  for (size_t t = 0; t < bound.tables.size(); ++t) {
    const Table& table = *bound.tables[t];
    memo->parts[t].resize(table.num_groups());
    for (size_t g = 0; g < table.num_groups(); ++g) {
      const PartitionGroup& group = table.group(g);
      DeltaMemo::Part& part = memo->parts[t][g];
      part.delta_rows = static_cast<uint32_t>(group.delta.num_rows());
      part.main_invalidations = group.main.invalidation_count();
      part.delta_invalidations = group.delta.invalidation_count();
      for (size_t i = 0; i < tid_columns[t].size(); ++i) {
        if (base == nullptr) {
          // The delta dictionary holds exactly the values of its rows.
          part.prefix_tids.push_back(
              TidRange::OfPartition(group.delta, tid_columns[t][i]));
        } else {
          TidRange range = (*splits[t][g].prefix_tids)[i];
          range.Extend(splits[t][g].suffix_tids[i]);
          part.prefix_tids.push_back(range);
        }
      }
    }
  }
  return memo;
}

}  // namespace

StatusOr<DeltaCompensation> DeltaCompensate(
    Executor& executor, const BoundQuery& bound,
    const std::vector<MdBinding>& mds, JoinPruner& pruner, bool use_pushdown,
    Snapshot snapshot, CompensationStats* stats, DeltaMemoSlot* memo_slot) {
  // A memo is used while it still describes the bound partitions and the
  // snapshot sees its prefix as it did. A stale memo may be replaced by an
  // older snapshot's; a valid one only by a newer (see Publish).
  std::shared_ptr<const DeltaMemo> loaded =
      memo_slot != nullptr ? memo_slot->Load() : nullptr;
  const bool loaded_valid =
      loaded != nullptr && MemoMatchesPartitions(*loaded, bound);
  const DeltaMemo* memo =
      loaded_valid && SnapshotCoversMemo(snapshot, *loaded) ? loaded.get()
                                                            : nullptr;
  std::vector<std::vector<size_t>> tid_columns;
  std::vector<std::vector<DeltaSplit>> splits;
  bool prefix_grew = false;
  if (memo_slot != nullptr) tid_columns = MdTidColumns(bound, mds);
  if (memo != nullptr) {
    splits.resize(bound.tables.size());
    for (size_t t = 0; t < bound.tables.size(); ++t) {
      const Table& table = *bound.tables[t];
      splits[t].resize(table.num_groups());
      for (size_t g = 0; g < table.num_groups(); ++g) {
        const Partition& delta = table.group(g).delta;
        DeltaSplit& split = splits[t][g];
        split.prefix_rows = memo->parts[t][g].delta_rows;
        split.total_rows = static_cast<uint32_t>(delta.num_rows());
        split.prefix_tids = &memo->parts[t][g].prefix_tids;
        for (size_t column : tid_columns[t]) {
          split.suffix_tids.push_back(TidRange::OfRows(
              delta, column, split.prefix_rows, split.total_rows));
        }
        prefix_grew |= split.total_rows > split.prefix_rows;
      }
    }
  }

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
    if (memo != nullptr) {
      const size_t first_term = tasks.size();
      AppendMemoTerms(bound, mds, tid_columns, splits, combo, extra,
                      pruner.level() == PruneLevel::kFull, &tasks);
      RecordMemoCombination(
          bound, mds, combo, extra,
          std::span<const Executor::SubjoinTask>(tasks).subspan(first_term));
    } else {
      RecordSubjoin(bound, mds, combo, "delta-compensation", decision, extra);
      tasks.push_back(Executor::SubjoinTask{std::move(combo), std::move(extra),
                                            /*restriction=*/{}});
    }
  }

  DeltaCompensation out;
  out.fresh = AggregateResult(bound.aggregates.size());
  if (!tasks.empty()) {
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
    // Merge in enumeration order so results are deterministic at any
    // thread count (floating-point sums are order-sensitive).
    for (const AggregateResult& partial : partials) {
      out.fresh.MergeFrom(partial);
    }
  }
  // Take or advance the memo only when the pass saw a settled state, and
  // republish only when the prefix grew, so an unchanged hit writes
  // nothing.
  if (memo_slot != nullptr && (memo == nullptr || prefix_grew) &&
      SnapshotSettled(bound, snapshot)) {
    out.memo = MakeMemo(bound, tid_columns, memo, splits, snapshot,
                        std::move(out.fresh));
    out.fresh = AggregateResult(bound.aggregates.size());
    memo_slot->Publish(out.memo, loaded_valid && memo == nullptr
                                     ? nullptr
                                     : loaded.get());
  } else if (memo != nullptr) {
    out.memo = loaded;
  }
  return out;
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
