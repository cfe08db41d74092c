#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggcache/aggcache.h"
#include "ops.h"
#include "spans.h"

namespace perfbench {

/// Times the cache manager's merge-time maintenance from outside the
/// library: `first()` is registered before the manager and `second()`
/// after it. A database calls its observers in registration order, so each
/// gap between the two is the manager's OnBeforeMerge or OnAfterMerge work.
class MaintenanceClock {
 public:
  struct Interval {
    Clock::time_point start;
    Clock::time_point end;
  };

  MaintenanceClock() : first_(this, true), second_(this, false) {}
  MaintenanceClock(const MaintenanceClock&) = delete;
  MaintenanceClock& operator=(const MaintenanceClock&) = delete;

  aggcache::MergeObserver* first() { return &first_; }
  aggcache::MergeObserver* second() { return &second_; }

  /// Intervals recorded since the previous call.
  std::vector<Interval> Take();

 private:
  class Edge : public aggcache::MergeObserver {
   public:
    Edge(MaintenanceClock* clock, bool opens) : clock_(clock), opens_(opens) {}
    void OnBeforeMerge(aggcache::Table&, size_t,
                       const aggcache::Snapshot&) override {
      clock_->Mark(opens_);
    }
    void OnAfterMerge(aggcache::Table&, size_t,
                      const aggcache::Snapshot&) override {
      clock_->Mark(opens_);
    }

   private:
    MaintenanceClock* clock_;
    bool opens_;
  };

  void Mark(bool opens);

  Edge first_;
  Edge second_;
  Clock::time_point opened_;
  std::vector<Interval> intervals_;
};

/// Work the traced phase attributes to layers, summed over its reads,
/// writes and merges (verification re-runs excluded).
struct LayerTotals {
  uint64_t hits = 0;
  uint64_t rebuilds = 0;
  double build_ms = 0;
  double main_comp_ms = 0;
  double delta_comp_ms = 0;
  uint64_t subjoins_executed = 0;
  uint64_t prune_considered = 0;
  uint64_t prune_pruned = 0;
  uint64_t pushdown_predicates = 0;
  uint64_t rows_scanned = 0;
  uint64_t tuples_joined = 0;
  uint64_t fallback_groupings = 0;
  uint64_t pool_tasks = 0;
  uint64_t pool_task_us = 0;
  uint64_t delta_rows = 0;
  double merge_maint_ms = 0;
  /// Sizes at the end of the phase.
  double cache_mb = 0;
  double storage_mb = 0;
  double query_mem_peak_mb = 0;
};

/// Outcome of running one operation sequence.
struct PhaseResult {
  size_t attempted = 0;
  size_t failed = 0;      ///< Operations that returned an error.
  size_t verified = 0;    ///< Sampled reads re-run uncached.
  size_t mismatches = 0;  ///< Sampled reads that differed.
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> merge_ms;
  /// Wall time of the phase minus the verification re-runs.
  double wall_s = 0;
  LayerTotals layers;  ///< Filled only when the phase is traced.
};

/// One loaded dataset with its cache manager and the workload's queries.
class World {
 public:
  /// Generates the dataset for `workload` from `seed`, merges it, builds
  /// the cache manager and prewarms every workload query.
  static aggcache::StatusOr<std::unique_ptr<World>> Create(Workload workload,
                                                           uint64_t seed);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  DatasetFacts Facts() const;
  size_t num_queries() const { return queries_.size(); }

  /// Runs `sequence` in a closed loop on the calling thread. With a span
  /// log, records spans around each public call and fills
  /// PhaseResult::layers. `perturb` corrupts each cached result before it
  /// is compared, to prove the check can fail.
  PhaseResult Run(const OpSequence& sequence, SpanLog* spans, bool perturb);

  /// Compares a cached execution of every workload query with the
  /// reference oracle under one fresh snapshot. Returns the number of
  /// mismatches; describes the first in `detail`.
  size_t CheckAgainstOracle(bool perturb, std::string* detail);

 private:
  World() = default;

  aggcache::Status ExecuteWrite(const Op& op, const OpSequence& sequence,
                                uint32_t id, SpanLog* spans);
  aggcache::Status ExecuteMerge(uint32_t id, SpanLog* spans,
                                LayerTotals* layers);
  uint64_t DeltaRows() const;

  MaintenanceClock clock_;
  std::unique_ptr<aggcache::Database> db_;
  std::optional<aggcache::ErpDataset> erp_;
  std::optional<aggcache::ChBenchDataset> ch_;
  std::unique_ptr<aggcache::AggregateCacheManager> cache_;
  std::vector<aggcache::Table*> tables_;
  /// chbench_wide write targets.
  aggcache::Table* orders_ = nullptr;
  aggcache::Table* neworder_ = nullptr;
  aggcache::Table* orderline_ = nullptr;
  /// erp_reporting sends SQL text; the others send prebuilt queries.
  std::vector<std::string> sql_;
  std::vector<aggcache::AggregateQuery> queries_;
  aggcache::ExecutionOptions options_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
