#ifndef AGGCACHE_TESTS_TEST_UTIL_H_
#define AGGCACHE_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "aggcache/aggcache.h"
#include "gtest/gtest.h"

namespace aggcache {
namespace testing_util {

/// gtest helper: fails the current test when `status` is not OK.
#define ASSERT_OK(expr)                                      \
  do {                                                       \
    ::aggcache::Status status_ = (expr);                     \
    ASSERT_TRUE(status_.ok()) << status_.ToString();         \
  } while (false)

#define EXPECT_OK(expr)                                      \
  do {                                                       \
    ::aggcache::Status status_ = (expr);                     \
    EXPECT_TRUE(status_.ok()) << status_.ToString();         \
  } while (false)

/// Unwraps a StatusOr or fails the test.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                     \
  auto AGGCACHE_CONCAT_(assign_or_, __LINE__) = (rexpr);     \
  ASSERT_TRUE(AGGCACHE_CONCAT_(assign_or_, __LINE__).ok())   \
      << AGGCACHE_CONCAT_(assign_or_, __LINE__).status();    \
  lhs = std::move(AGGCACHE_CONCAT_(assign_or_, __LINE__)).value()

/// Creates the canonical two-table header/item schema used across tests:
/// Header(HeaderID pk, FiscalYear, tid_Header) and Item(ItemID pk,
/// HeaderID fk->Header with MD tid, Amount double, tid_Item). Returns the
/// two tables through out-params.
inline void CreateHeaderItemTables(Database* db, Table** header,
                                   Table** item) {
  auto header_or = db->CreateTable(SchemaBuilder("Header")
                                       .AddColumn("HeaderID",
                                                  ColumnType::kInt64)
                                       .PrimaryKey()
                                       .AddColumn("FiscalYear",
                                                  ColumnType::kInt64)
                                       .OwnTid("tid_Header")
                                       .Build());
  ASSERT_TRUE(header_or.ok()) << header_or.status();
  *header = header_or.value();
  auto item_or = db->CreateTable(SchemaBuilder("Item")
                                     .AddColumn("ItemID", ColumnType::kInt64)
                                     .PrimaryKey()
                                     .AddColumn("HeaderID",
                                                ColumnType::kInt64)
                                     .References("Header", "tid_Header")
                                     .AddColumn("Amount",
                                                ColumnType::kDouble)
                                     .OwnTid("tid_Item")
                                     .Build());
  ASSERT_TRUE(item_or.ok()) << item_or.status();
  *item = item_or.value();
}

/// Inserts one business object: a header and `num_items` items, all in one
/// transaction — an atomic write scope, so tests with concurrent readers
/// never observe a half-inserted object.
inline Status InsertBusinessObject(Database* db, Table* header, Table* item,
                                   int64_t header_id, int64_t fiscal_year,
                                   int num_items, double amount,
                                   int64_t* next_item_id) {
  ScopedTransaction txn = db->BeginAtomic();
  RETURN_IF_ERROR(
      header->Insert(txn, {Value(header_id), Value(fiscal_year)}));
  for (int i = 0; i < num_items; ++i) {
    RETURN_IF_ERROR(item->Insert(
        txn, {Value((*next_item_id)++), Value(header_id), Value(amount)}));
  }
  return Status::Ok();
}

/// The standard header/item revenue query: SUM(Amount), COUNT(*) grouped by
/// FiscalYear over Header ⋈ Item.
inline AggregateQuery HeaderItemQuery() {
  return QueryBuilder()
      .From("Header")
      .Join("Item", "HeaderID", "HeaderID")
      .GroupBy("Header", "FiscalYear")
      .Sum("Item", "Amount", "Revenue")
      .CountStar("NumItems")
      .Build();
}

/// Asserts that cached execution (any strategy/pushdown combination) agrees
/// with uncached execution for `query` right now.
inline void ExpectAllStrategiesAgree(Database* db,
                                     AggregateCacheManager* cache,
                                     const AggregateQuery& query) {
  Transaction txn = db->Begin();
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto baseline = cache->Execute(query, txn, uncached);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kCachedNoPruning,
        ExecutionStrategy::kCachedEmptyDeltaPruning,
        ExecutionStrategy::kCachedFullPruning}) {
    for (bool pushdown : {false, true}) {
      ExecutionOptions options;
      options.strategy = strategy;
      options.use_predicate_pushdown = pushdown;
      auto result = cache->Execute(query, txn, options);
      ASSERT_TRUE(result.ok()) << result.status();
      std::string diff;
      EXPECT_TRUE(result->ApproxEquals(*baseline, 1e-9, &diff))
          << ExecutionStrategyToString(strategy)
          << " pushdown=" << pushdown << ": " << diff;
    }
  }
}

/// A cache config that pays delta compensation on every hit, as the paper
/// does: for tests whose premise is what each hit compensates (subjoin
/// counts, verdicts, fan-out spans), which the delta memo would otherwise
/// answer without a subjoin.
inline AggregateCacheManager::Config PerHitCompensationConfig() {
  AggregateCacheManager::Config config;
  config.incremental_delta_compensation = false;
  return config;
}

}  // namespace testing_util
}  // namespace aggcache

#endif  // AGGCACHE_TESTS_TEST_UTIL_H_
