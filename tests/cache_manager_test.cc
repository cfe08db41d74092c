#include "cache/aggregate_cache_manager.h"

#include <chrono>
#include <thread>

#include "gtest/gtest.h"
#include "obs/active_queries.h"
#include "obs/engine_metrics.h"
#include "obs/query_trace.h"
#include "obs/span.h"
#include "runtime/query_context.h"
#include "tests/test_util.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

using testing_util::ExpectAllStrategiesAgree;

class CacheManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    cache_ = std::make_unique<AggregateCacheManager>(&db_);
    for (int64_t h = 1; h <= 10; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, h % 2 == 0 ? 2014 : 2013, 2, 10.0,
          &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  std::unique_ptr<AggregateCacheManager> cache_;
  int64_t next_item_id_ = 1;
  AggregateQuery query_ = testing_util::HeaderItemQuery();
};

TEST_F(CacheManagerTest, MissCreatesEntryHitReuses) {
  Transaction txn = db_.Begin();
  auto first = cache_->Execute(query_, txn);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(cache_->last_exec_stats().entry_created);
  EXPECT_FALSE(cache_->last_exec_stats().cache_hit);
  EXPECT_EQ(cache_->num_entries(), 1u);

  auto second = cache_->Execute(query_, txn);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(cache_->last_exec_stats().cache_hit);
  EXPECT_FALSE(cache_->last_exec_stats().entry_created);
  std::string diff;
  EXPECT_TRUE(first->ApproxEquals(*second, 1e-9, &diff)) << diff;
}

TEST_F(CacheManagerTest, CachedEqualsUncachedOnCleanState) {
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, CachedEqualsUncachedWithDeltaRows) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  for (int64_t h = 11; h <= 14; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2014, 3, 5.0, &next_item_id_));
  }
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{1}), Value(7.0)}));
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, FullPruningSkipsSubjoins) {
  cache_ = std::make_unique<AggregateCacheManager>(
      &db_, testing_util::PerHitCompensationConfig());
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 20,
                                               2014, 2, 1.0,
                                               &next_item_id_));
  Transaction txn = db_.Begin();
  ExecutionOptions no_pruning;
  no_pruning.strategy = ExecutionStrategy::kCachedNoPruning;
  ASSERT_TRUE(cache_->Execute(query_, txn, no_pruning).ok());
  uint64_t subjoins_no_pruning = cache_->last_exec_stats().subjoins_executed;

  ExecutionOptions full;
  full.strategy = ExecutionStrategy::kCachedFullPruning;
  ASSERT_TRUE(cache_->Execute(query_, txn, full).ok());
  uint64_t subjoins_full = cache_->last_exec_stats().subjoins_executed;
  EXPECT_EQ(subjoins_no_pruning, 3u);  // 2^2 - 1.
  EXPECT_EQ(subjoins_full, 1u);        // Only delta x delta.
  EXPECT_EQ(cache_->last_exec_stats().subjoins_pruned, 2u);
}

TEST_F(CacheManagerTest, MainCompensationAfterDelete) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  // Delete a header (its items become dangling but the join drops them).
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{1})));
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, SingleTableMainCompensationIsIncremental) {
  AggregateQuery single = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Sum("Item", "Amount", "total")
                              .CountStar("n")
                              .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(single, warm).ok());
  // Delete two items from main.
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{1})));
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{2})));
  Transaction query_txn = db_.Begin();
  auto result = cache_->Execute(single, query_txn);
  ASSERT_TRUE(result.ok());
  // Single-table entries are compensated, not rebuilt.
  EXPECT_FALSE(cache_->last_exec_stats().entry_rebuilt);
  EXPECT_GT(cache_->last_exec_stats().main_comp_ms, 0.0);
  ExpectAllStrategiesAgree(&db_, cache_.get(), single);
}

TEST_F(CacheManagerTest, JoinEntryCompensatedIncrementallyByDefault) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{2}),
                                {Value(int64_t{2}), Value(int64_t{2013})}));
  Transaction query_txn = db_.Begin();
  auto result = cache_->Execute(query_, query_txn);
  ASSERT_TRUE(result.ok());
  // The default config corrects the entry via negative-delta joins, no
  // rebuild (the Section 8 extension).
  EXPECT_FALSE(cache_->last_exec_stats().entry_rebuilt);
  EXPECT_GT(cache_->last_exec_stats().main_comp_ms, 0.0);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, JoinEntryRebuiltWhenIncrementalDisabled) {
  AggregateCacheManager::Config config;
  config.incremental_join_main_compensation = false;
  AggregateCacheManager rebuild_cache(&db_, config);
  Transaction warm = db_.Begin();
  ASSERT_TRUE(rebuild_cache.Execute(query_, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{2}),
                                {Value(int64_t{2}), Value(int64_t{2013})}));
  Transaction query_txn = db_.Begin();
  auto result = rebuild_cache.Execute(query_, query_txn);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(rebuild_cache.last_exec_stats().entry_rebuilt);
  ExpectAllStrategiesAgree(&db_, &rebuild_cache, query_);
}

TEST_F(CacheManagerTest, IncrementalAndRebuildCompensationAgree) {
  AggregateCacheManager::Config rebuild_config;
  rebuild_config.incremental_join_main_compensation = false;
  AggregateCacheManager rebuild_cache(&db_, rebuild_config);
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  ASSERT_TRUE(rebuild_cache.Execute(query_, warm).ok());

  // A batch of updates and deletes on both join sides.
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{1}),
                                {Value(int64_t{1}), Value(int64_t{2014})}));
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{3})));
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{5})));
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{6})));

  Transaction query_txn = db_.Begin();
  auto incremental = cache_->Execute(query_, query_txn);
  auto rebuilt = rebuild_cache.Execute(query_, query_txn);
  ASSERT_TRUE(incremental.ok() && rebuilt.ok());
  std::string diff;
  EXPECT_TRUE(incremental->ApproxEquals(*rebuilt, 1e-9, &diff)) << diff;
}

TEST_F(CacheManagerTest, MergeMaintainsEntryIncrementally) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  for (int64_t h = 30; h <= 32; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2013, 2, 4.0, &next_item_id_));
  }
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  // Entry was maintained during the merge: using it is a plain hit with no
  // rebuild, and the result matches uncached execution.
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(query_, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(cache_->last_exec_stats().cache_hit);
  EXPECT_FALSE(cache_->last_exec_stats().entry_rebuilt);
  const CacheEntry* entry = cache_->Find(query_);
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->metrics().maintenance_ms, 0.0);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, MergeWithKeepInvalidated) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{3})));
  MergeOptions keep;
  keep.keep_invalidated = true;
  ASSERT_OK(db_.Merge("Header", keep));
  ASSERT_OK(db_.Merge("Item", keep));
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, NonCacheableQueryFallsBack) {
  AggregateQuery minmax = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Max("Item", "Amount", "m")
                              .Build();
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(minmax, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(cache_->last_exec_stats().used_cache);
  EXPECT_EQ(cache_->num_entries(), 0u);
}

TEST_F(CacheManagerTest, AdmissionRejectsCheapAggregates) {
  AggregateCacheManager::Config config;
  config.min_main_exec_ms = 1e9;  // Nothing is ever this expensive.
  AggregateCacheManager picky(&db_, config);
  Transaction txn = db_.Begin();
  auto result = picky.Execute(query_, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(picky.num_entries(), 0u);
  EXPECT_FALSE(picky.last_exec_stats().used_cache);
  // The result is still correct.
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto baseline = picky.Execute(query_, txn, uncached);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(result->ApproxEquals(*baseline));
}

TEST_F(CacheManagerTest, EvictionRespectsMaxEntries) {
  AggregateCacheManager::Config config;
  config.max_entries = 2;
  AggregateCacheManager small(&db_, config);
  Transaction txn = db_.Begin();
  for (int64_t year : {2013, 2014, 2015}) {
    AggregateQuery q = QueryBuilder()
                           .From("Header")
                           .Join("Item", "HeaderID", "HeaderID")
                           .Filter("Header", "FiscalYear", CompareOp::kEq,
                                   Value(year))
                           .GroupBy("Header", "FiscalYear")
                           .Sum("Item", "Amount", "s")
                           .Build();
    ASSERT_TRUE(small.Execute(q, txn).ok());
  }
  EXPECT_EQ(small.num_entries(), 2u);
}

TEST_F(CacheManagerTest, ClearRemovesEntries) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  EXPECT_EQ(cache_->num_entries(), 1u);
  EXPECT_GT(cache_->total_bytes(), 0u);
  cache_->Clear();
  EXPECT_EQ(cache_->num_entries(), 0u);
  EXPECT_EQ(cache_->total_bytes(), 0u);
}

TEST_F(CacheManagerTest, PrewarmBuildsEntry) {
  ASSERT_OK(cache_->Prewarm(query_));
  EXPECT_EQ(cache_->num_entries(), 1u);
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  EXPECT_TRUE(cache_->last_exec_stats().cache_hit);
}

TEST_F(CacheManagerTest, PrewarmRejectsNonCacheable) {
  AggregateQuery minmax = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Min("Item", "Amount", "m")
                              .Build();
  EXPECT_FALSE(cache_->Prewarm(minmax).ok());
}

TEST_F(CacheManagerTest, EntryRebuiltAfterHotColdSplit) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(query_, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(cache_->last_exec_stats().entry_rebuilt);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, MetricsAccumulate) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  const CacheEntry* entry = cache_->Find(query_);
  ASSERT_NE(entry, nullptr);
  // The first Execute is the miss that created the entry; only the second
  // is a hit that exercises delta compensation for profit accounting.
  EXPECT_EQ(entry->metrics().delta_comp_count, 1u);
  EXPECT_EQ(entry->metrics().hit_count, 1u);
  EXPECT_GT(entry->metrics().size_bytes, 0u);
  EXPECT_GT(entry->metrics().main_rows_aggregated, 0u);
}

TEST_F(CacheManagerTest, ColdExecuteLeavesHitCountZero) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  ASSERT_TRUE(cache_->last_exec_stats().entry_created);
  const CacheEntry* entry = cache_->Find(query_);
  ASSERT_NE(entry, nullptr);
  // The miss that created the entry saved nothing: it must not be credited
  // as a hit, nor may its compensation time skew AvgDeltaCompMs().
  EXPECT_EQ(entry->metrics().hit_count, 0u);
  EXPECT_EQ(entry->metrics().delta_comp_count, 0u);
  EXPECT_EQ(entry->metrics().total_delta_comp_ms, 0.0);
}

TEST_F(CacheManagerTest, CreateAndRebuildSurfaceMainExecMs) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  ASSERT_TRUE(cache_->last_exec_stats().entry_created);
  EXPECT_GT(cache_->last_exec_stats().main_exec_ms, 0.0);

  // A hot/cold split changes the partition layout, forcing the rebuild path
  // of GetOrCreateEntry; callers must see the build cost there too.
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  Transaction txn2 = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn2).ok());
  ASSERT_TRUE(cache_->last_exec_stats().entry_rebuilt);
  EXPECT_GT(cache_->last_exec_stats().main_exec_ms, 0.0);
}

TEST_F(CacheManagerTest, FirstBuildSeedsRebuildEwmaWithTheBuildTime) {
  // One clock read closes the build phase, and every sink gets that value:
  // the EWMA's first sample is seeded directly, so it must equal
  // main_exec_ms bit for bit.
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  ASSERT_TRUE(cache_->last_exec_stats().entry_created);
  std::vector<AggregateCacheManager::LedgerEntry> ledger =
      cache_->LedgerSnapshot();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_GT(ledger[0].main_exec_ms, 0.0);
  EXPECT_EQ(ledger[0].ewma_rebuild_ms, ledger[0].main_exec_ms);
  EXPECT_EQ(cache_->last_exec_stats().main_exec_ms, ledger[0].main_exec_ms);
}

TEST_F(CacheManagerTest, QueryContextCountsEveryScannedRow) {
  // rows_scanned() sums every fan-out task of the query, whichever phase
  // ran it: the uncached union, and a miss that builds the entry over all
  // mains and then compensates the delta.
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 11,
                                               2014, 2, 5.0,
                                               &next_item_id_));
  const Counter* scanned = EngineMetrics::Get().exec_rows_scanned;
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kUncached, ExecutionStrategy::kCachedFullPruning}) {
    QueryContext ctx;
    ScopedQueryContext scope(&ctx);
    ExecutionOptions options;
    options.strategy = strategy;
    uint64_t before = scanned->Value();
    Transaction txn = db_.Begin();
    ASSERT_TRUE(cache_->Execute(query_, txn, options).ok());
    EXPECT_GT(ctx.rows_scanned(), 0u) << ExecutionStrategyToString(strategy);
    EXPECT_EQ(ctx.rows_scanned(), scanned->Value() - before)
        << ExecutionStrategyToString(strategy);
  }
  EXPECT_TRUE(cache_->last_exec_stats().entry_created);
}

TEST_F(CacheManagerTest, SubjoinCountIgnoresConcurrentQueries) {
  // A query counts only the subjoins of its own fan-outs: an uncached query
  // that runs while a hit is parked in delta compensation must not leak its
  // subjoins into the hit's count.
  cache_ = std::make_unique<AggregateCacheManager>(
      &db_, testing_util::PerHitCompensationConfig());
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 11,
                                               2014, 2, 5.0,
                                               &next_item_id_));
  Transaction serial_txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, serial_txn).ok());
  ASSERT_TRUE(cache_->last_exec_stats().cache_hit);
  const uint64_t serial_subjoins = cache_->last_exec_stats().subjoins_executed;
  ASSERT_GT(serial_subjoins, 0u);

  // Park the same hit once, just before its delta compensation fans out.
  FaultInjector& faults = FaultInjector::Global();
  ASSERT_OK(faults.ArmFromSpec("cache.delta_comp:delay:2000"));
  std::thread parked([&] {
    Transaction txn = db_.Begin();
    EXPECT_TRUE(cache_->Execute(query_, txn).ok());
  });
  while (faults.stats("cache.delta_comp").hits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  Transaction txn = db_.Begin();
  EXPECT_TRUE(cache_->Execute(query_, txn, uncached).ok());
  EXPECT_GT(cache_->last_exec_stats().subjoins_executed, 0u);
  const bool hit_still_parked =
      ActiveQueryRegistry::Global().active_count() == 1;
  parked.join();
  faults.DisarmAll();

  // The uncached query ran entirely inside the hit's execution.
  ASSERT_TRUE(hit_still_parked);
  ASSERT_TRUE(cache_->last_exec_stats().cache_hit);
  EXPECT_EQ(cache_->last_exec_stats().subjoins_executed, serial_subjoins);
}

TEST_F(CacheManagerTest, StaleReaderDoesNotAbsorbAnInvalidationItCannotSee) {
  AggregateQuery single = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Sum("Item", "Amount", "total")
                              .CountStar("n")
                              .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(single, warm).ok());
  // The reader's snapshot predates the update; the entry is dirty when it
  // arrives. Compensating at its snapshot would record the update as
  // applied while the old row version still counts for later readers.
  Transaction stale = db_.Begin();
  Transaction writer = db_.Begin();
  ASSERT_OK(item_->UpdateColumnByPk(writer, Value(int64_t{1}), "Amount",
                                    Value(99.0)));
  QueryTrace trace;
  auto stale_result =
      cache_->ExecuteTraced(single, stale, ExecutionOptions(), &trace);
  EXPECT_EQ(trace.cache_outcome, "snapshot-fallback");
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto stale_expected = cache_->Execute(single, stale, uncached);
  ASSERT_TRUE(stale_result.ok() && stale_expected.ok());
  std::string diff;
  EXPECT_TRUE(stale_result->ApproxEquals(*stale_expected, 1e-9, &diff))
      << diff;
  ExpectAllStrategiesAgree(&db_, cache_.get(), single);
}

// --- Delta compensation memo ------------------------------------------------

class DeltaMemoTest : public CacheManagerTest {
 protected:
  const CacheEntry& Entry() const { return *cache_->Find(query_); }

  std::shared_ptr<const DeltaMemo> Memo() const {
    return Entry().delta_memo().Load();
  }

  /// Runs the query cached under `txn`, expects a hit that agrees with
  /// kUncached at the same snapshot, and returns the delta rows the hit's
  /// compensation scanned.
  uint64_t ScannedByHit(const Transaction& txn) {
    const uint64_t before =
        Entry().metrics().delta_rows_scanned.load(std::memory_order_relaxed);
    auto cached = cache_->Execute(query_, txn);
    EXPECT_TRUE(cached.ok()) << cached.status();
    EXPECT_TRUE(cache_->last_exec_stats().cache_hit);
    ExpectMatchesUncached(cached, txn);
    return Entry().metrics().delta_rows_scanned.load(
               std::memory_order_relaxed) -
           before;
  }

  void ExpectMatchesUncached(const StatusOr<AggregateResult>& cached,
                             const Transaction& txn) {
    ExecutionOptions uncached;
    uncached.strategy = ExecutionStrategy::kUncached;
    auto expected = cache_->Execute(query_, txn, uncached);
    ASSERT_TRUE(cached.ok() && expected.ok());
    std::string diff;
    EXPECT_TRUE(cached->ApproxEquals(*expected, 1e-9, &diff)) << diff;
  }

  void Warm() {
    Transaction warm = db_.Begin();
    ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  }

  void InsertObject(int64_t header_id, int items) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, header_id, 2014, items, 5.0, &next_item_id_));
  }
};

TEST_F(DeltaMemoTest, HitWithoutNewRowsScansNoDeltaRows) {
  Warm();
  ASSERT_NE(Memo(), nullptr) << "the miss's full pass takes the memo";
  InsertObject(11, 2);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 3u);  // The new header + 2 items.
  const DeltaMemo* advanced = Memo().get();
  Transaction txn = db_.Begin();
  EXPECT_EQ(ScannedByHit(txn), 0u);
  // An unchanged hit republishes nothing and runs no subjoin.
  EXPECT_EQ(Memo().get(), advanced);
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  EXPECT_EQ(cache_->last_exec_stats().subjoins_executed, 0u);
}

TEST_F(DeltaMemoTest, HitAfterOneBusinessObjectScansOnlyTheSuffix) {
  Warm();
  for (int64_t h = 11; h <= 13; ++h) InsertObject(h, 2);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 9u);
  InsertObject(14, 3);
  // Eq. 5 on slices prunes new-header x old-items and old-headers x
  // new-items: only the object's own 4 rows are read.
  EXPECT_EQ(ScannedByHit(db_.Begin()), 4u);
}

TEST_F(DeltaMemoTest, MergeResetsTheMemo) {
  Warm();
  InsertObject(11, 2);
  ScannedByHit(db_.Begin());
  ASSERT_NE(Memo(), nullptr);
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  EXPECT_EQ(Memo(), nullptr);
  InsertObject(12, 2);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 3u);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(DeltaMemoTest, MainRowUpdateForcesAFullPass) {
  Warm();
  InsertObject(11, 2);
  InsertObject(12, 2);
  ScannedByHit(db_.Begin());
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
  // A price update of a main item invalidates a main row and appends a
  // late item to the Item delta.
  Transaction writer = db_.Begin();
  ASSERT_OK(item_->UpdateColumnByPk(writer, Value(int64_t{1}), "Amount",
                                    Value(99.0)));
  // Full pass: every header and item delta row is read again.
  EXPECT_GE(ScannedByHit(db_.Begin()), 2u + 5u);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(DeltaMemoTest, DeltaRowDeleteForcesAFullPass) {
  Warm();
  const int64_t first_new_item = next_item_id_;
  InsertObject(11, 2);
  InsertObject(12, 2);
  ScannedByHit(db_.Begin());
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
  Transaction writer = db_.Begin();
  ASSERT_OK(item_->DeleteByPk(writer, Value(first_new_item)));
  EXPECT_EQ(ScannedByHit(db_.Begin()), 2u + 4u);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(DeltaMemoTest, ReaderOlderThanTheMemoDoesAFullPass) {
  Warm();
  InsertObject(11, 2);
  ScannedByHit(db_.Begin());
  Transaction old_reader = db_.Begin();
  InsertObject(12, 2);
  Transaction newer = db_.Begin();
  EXPECT_EQ(ScannedByHit(newer), 3u);
  const Tid memo_tid = Memo()->read_tid;
  ASSERT_LT(old_reader.snapshot().read_tid, memo_tid);
  // The old snapshot must not see object 12: the memo covers it, so the
  // old reader compensates the whole delta itself.
  EXPECT_EQ(ScannedByHit(old_reader), 2u + 4u);
  EXPECT_EQ(Memo()->read_tid, memo_tid);

  // A settled reader older than the memo does not replace it either: it
  // sees every row, because an older transaction wrote them.
  Transaction writer = db_.Begin();
  Transaction settled_old = db_.Begin();
  ASSERT_OK(header_->Insert(writer, {Value(int64_t{13}), Value(int64_t{2014})}));
  ASSERT_OK(item_->Insert(
      writer, {Value(next_item_id_++), Value(int64_t{13}), Value(1.0)}));
  Transaction after = db_.Begin();
  EXPECT_EQ(ScannedByHit(after), 2u);
  EXPECT_EQ(ScannedByHit(settled_old), 3u + 5u);
  EXPECT_EQ(Memo()->read_tid, after.snapshot().read_tid);
}

TEST_F(DeltaMemoTest, AtomicScopeInFlightPreventsTheMemo) {
  {
    ScopedTransaction scope = db_.BeginAtomic();
    ASSERT_OK(header_->Insert(scope, {Value(int64_t{11}), Value(int64_t{2014})}));
    ASSERT_OK(item_->Insert(
        scope, {Value(next_item_id_++), Value(int64_t{11}), Value(3.0)}));
    // This reader excludes the scope: its pass may not become the memo.
    Transaction reader = db_.Begin();
    auto cached = cache_->Execute(query_, reader);
    ExpectMatchesUncached(cached, reader);
    EXPECT_EQ(Memo(), nullptr);
    // Full pass again; the invisible header ends the join before Item.
    EXPECT_EQ(ScannedByHit(reader), 1u);
    EXPECT_EQ(Memo(), nullptr);
  }
  // The scope ended: the next reader sees it whole and takes the memo.
  EXPECT_EQ(ScannedByHit(db_.Begin()), 2u);
  ASSERT_NE(Memo(), nullptr);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(DeltaMemoTest, ReaderThatMissesRowsDoesNotTakeTheMemo) {
  Warm();
  // The reader's snapshot predates a row already in the delta; a memo
  // taken from its pass would hide that row from every later reader.
  Transaction old_reader = db_.Begin();
  InsertObject(11, 2);
  const Tid memo_tid = Memo()->read_tid;
  // The invisible header ends the join before Item.
  EXPECT_EQ(ScannedByHit(old_reader), 1u);
  EXPECT_EQ(Memo()->read_tid, memo_tid);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 3u);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(DeltaMemoTest, HotColdSplitResetsTheMemo) {
  Warm();
  ASSERT_NE(Memo(), nullptr);
  ASSERT_EQ(Memo()->parts[0].size(), 1u);
  ASSERT_OK(header_->SplitHotCold("FiscalYear", Value(int64_t{2014})));
  // The split changes the entry's shape: the read rebuilds it, which drops
  // the old memo, and its full pass takes one over both header groups.
  Transaction txn = db_.Begin();
  auto rebuilt = cache_->Execute(query_, txn);
  EXPECT_TRUE(cache_->last_exec_stats().entry_rebuilt);
  ExpectMatchesUncached(rebuilt, txn);
  ASSERT_NE(Memo(), nullptr);
  EXPECT_EQ(Memo()->parts[0].size(), 2u);
  InsertObject(11, 2);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 3u);
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(DeltaMemoTest, MemoHitHonorsCancellationAndDeadline) {
  Warm();
  InsertObject(11, 2);
  ScannedByHit(db_.Begin());
  {
    // A memo hit runs no subjoin, so only the check before the final merge
    // can see the abort.
    QueryContext ctx;
    ctx.Cancel();
    ScopedQueryContext scope(&ctx);
    auto result = cache_->Execute(query_, db_.Begin());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status();
  }
  {
    QueryContext::Options options;
    options.deadline_ms = 1;
    QueryContext ctx(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ScopedQueryContext scope(&ctx);
    auto result = cache_->Execute(query_, db_.Begin());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status();
  }
  EXPECT_EQ(ScannedByHit(db_.Begin()), 0u);
}

TEST_F(CacheManagerTest, ReaderOlderThanEntryFallsBackUncached) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  // The old reader's snapshot predates the delete below.
  Transaction old_reader = db_.Begin();
  Transaction writer = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(writer, Value(int64_t{1})));
  // A newer reader main-compensates the entry past the old snapshot.
  Transaction newer = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, newer).ok());
  ASSERT_GT(cache_->Find(query_)->base_tid(), old_reader.snapshot().read_tid);

  const EngineMetrics& metrics = EngineMetrics::Get();
  uint64_t lookups = metrics.cache_lookups->Value();
  uint64_t hits = metrics.cache_hits->Value();
  uint64_t misses = metrics.cache_misses->Value();
  uint64_t fallbacks = metrics.cache_uncached_fallbacks->Value();
  bool spans_were_enabled = SpanRecorder::Global().enabled();
  SpanRecorder::Global().set_enabled(true);
  QueryTrace trace;
  auto cached = cache_->ExecuteTraced(query_, old_reader, ExecutionOptions(),
                                      &trace);
  SpanRecorder::Global().set_enabled(spans_were_enabled);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(trace.cache_outcome, "snapshot-fallback");
  EXPECT_FALSE(cache_->last_exec_stats().used_cache);

  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto expected = cache_->Execute(query_, old_reader, uncached);
  ASSERT_TRUE(expected.ok()) << expected.status();
  std::string diff;
  EXPECT_TRUE(cached->ApproxEquals(*expected, 1e-9, &diff)) << diff;

  EXPECT_EQ(metrics.cache_uncached_fallbacks->Value(), fallbacks + 1);
  EXPECT_EQ(metrics.cache_lookups->Value(), lookups + 1);
  EXPECT_EQ(metrics.cache_misses->Value(), misses + 1);
  EXPECT_EQ(metrics.cache_hits->Value(), hits);

  // The fallback's uncached execution is a direct child of the query root.
  std::vector<SpanRecorder::Span> spans = SpanRecorder::Global().Collect();
  const SpanRecorder::Span* root = nullptr;
  for (const SpanRecorder::Span& span : spans) {
    if (span.kind == SpanKind::kQuery &&
        (root == nullptr || span.seq > root->seq)) {
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  int uncached_children = 0;
  for (const SpanRecorder::Span& span : spans) {
    if (span.query_id == root->query_id &&
        span.kind == SpanKind::kUncachedExec) {
      EXPECT_EQ(span.parent_id, root->span_id);
      ++uncached_children;
    }
  }
  EXPECT_EQ(uncached_children, 1);
}

TEST_F(CacheManagerTest, EntryBuiltByOldReaderAfterMergeServesNewReaders) {
  // The old reader's snapshot predates a business object that a merge
  // then moves into main. Its cache miss builds the entry at that old
  // snapshot; a newer reader must still see the object.
  Transaction old_reader = db_.Begin();
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 50, 2014,
                                               2, 3.0, &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  ASSERT_TRUE(cache_->Execute(query_, old_reader).ok());
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, EvictionByteAccountingMatchesRecomputation) {
  AggregateCacheManager::Config config;
  config.max_bytes = 1;  // Every insertion triggers an eviction storm.
  AggregateCacheManager small(&db_, config);
  Transaction txn = db_.Begin();
  for (int64_t year : {2013, 2014, 2015}) {
    AggregateQuery q = QueryBuilder()
                           .From("Header")
                           .Join("Item", "HeaderID", "HeaderID")
                           .Filter("Header", "FiscalYear", CompareOp::kEq,
                                   Value(year))
                           .GroupBy("Header", "FiscalYear")
                           .Sum("Item", "Amount", "s")
                           .Build();
    ASSERT_TRUE(small.Execute(q, txn).ok());
    EXPECT_EQ(small.total_bytes(), small.RecomputeTotalBytes());
  }
  // The byte budget keeps exactly the one unevictable entry alive.
  EXPECT_EQ(small.num_entries(), 1u);
  EXPECT_EQ(small.total_bytes(), small.RecomputeTotalBytes());

  // Mutations that resize resident entries keep the running total in step.
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 40,
                                               2015, 2, 3.0,
                                               &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  EXPECT_EQ(small.total_bytes(), small.RecomputeTotalBytes());
}

TEST_F(CacheManagerTest, MergeSkipsEntriesNotReferencingMergedTable) {
  // An entry on an unrelated table must not be bound or maintained when
  // Header/Item merge.
  auto other_or = db_.CreateTable(SchemaBuilder("Other")
                                      .AddColumn("K", ColumnType::kInt64)
                                      .PrimaryKey()
                                      .AddColumn("V", ColumnType::kInt64)
                                      .Build());
  ASSERT_TRUE(other_or.ok()) << other_or.status();
  Table* other = other_or.value();
  Transaction setup = db_.Begin();
  ASSERT_OK(other->Insert(setup, {Value(int64_t{1}), Value(int64_t{7})}));
  AggregateQuery other_query = QueryBuilder()
                                   .From("Other")
                                   .GroupBy("Other", "K")
                                   .Sum("Other", "V", "s")
                                   .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(other_query, warm).ok());
  ASSERT_TRUE(cache_->Execute(query_, warm).ok());

  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 50,
                                               2014, 2, 2.0,
                                               &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));

  const CacheEntry* other_entry = cache_->Find(other_query);
  ASSERT_NE(other_entry, nullptr);
  EXPECT_EQ(other_entry->metrics().maintenance_ms, 0.0);
  EXPECT_EQ(other_entry->metrics().maintenance_failures, 0u);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
  ExpectAllStrategiesAgree(&db_, cache_.get(), other_query);
}

TEST_F(CacheManagerTest, StrategyNames) {
  EXPECT_STREQ(ExecutionStrategyToString(ExecutionStrategy::kUncached),
               "uncached");
  EXPECT_STREQ(
      ExecutionStrategyToString(ExecutionStrategy::kCachedNoPruning),
      "cached-no-pruning");
  EXPECT_STREQ(
      ExecutionStrategyToString(ExecutionStrategy::kCachedEmptyDeltaPruning),
      "cached-empty-delta-pruning");
  EXPECT_STREQ(
      ExecutionStrategyToString(ExecutionStrategy::kCachedFullPruning),
      "cached-full-pruning");
}

}  // namespace
}  // namespace aggcache
