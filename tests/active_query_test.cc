// Tests for the active-query registry (src/obs/active_queries.h) and its
// integration with the cache manager: a running query is visible in the
// registry with its current phase, elapsed time, and resource counters; a
// remote Cancel() unwinds it with the typed kCancelled status; and the
// registration/unregistration bookkeeping balances — no slots, contexts, or
// tracked query bytes left behind. The query is parked inside delta
// compensation deterministically with the cache.delta_comp kDelay fault
// point, the same mechanism the CI cancel round-trip uses.

#include "obs/active_queries.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cache/aggregate_cache_manager.h"
#include "gtest/gtest.h"
#include "obs/engine_metrics.h"
#include "runtime/memory_tracker.h"
#include "runtime/query_context.h"
#include "tests/test_util.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

class ActiveQueryTest : public ::testing::Test {
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

  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  /// Polls List() until a query whose phase matches arrives (or times out);
  /// returns its Info with id=0 on timeout.
  ActiveQueryRegistry::Info WaitForPhase(const std::string& phase,
                                         int timeout_ms = 5000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      for (const ActiveQueryRegistry::Info& info :
           ActiveQueryRegistry::Global().List()) {
        if (info.phase == phase) return info;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return ActiveQueryRegistry::Info{};
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  std::unique_ptr<AggregateCacheManager> cache_;
  int64_t next_item_id_ = 1;
  AggregateQuery query_ = testing_util::HeaderItemQuery();
};

TEST_F(ActiveQueryTest, RegistryIsEmptyAtRestAndAfterQueries) {
  ActiveQueryRegistry& registry = ActiveQueryRegistry::Global();
  EXPECT_EQ(registry.active_count(), 0u);
  EXPECT_TRUE(registry.List().empty());

  uint64_t registrations_before =
      EngineMetrics::Get().query_registrations->Value();
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  // The query registered on entry and unregistered on exit.
  EXPECT_EQ(EngineMetrics::Get().query_registrations->Value(),
            registrations_before + 1);
  EXPECT_EQ(registry.active_count(), 0u);
  EXPECT_TRUE(registry.List().empty());
  EXPECT_EQ(EngineMetrics::Get().active_queries->Value(), 0);
}

TEST_F(ActiveQueryTest, ListJsonSchemaOnEmptyRegistry) {
  std::string json = ActiveQueryRegistry::Global().ListJson();
  EXPECT_NE(json.find("\"schema\":\"aggcache-queries-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"active\":0"), std::string::npos);
  EXPECT_NE(json.find("\"queries\":[]"), std::string::npos);
}

TEST_F(ActiveQueryTest, CancelOnUnknownIdIsFalse) {
  EXPECT_FALSE(ActiveQueryRegistry::Global().Cancel(999999));
}

// The tentpole scenario: a query parked in delta compensation is visible in
// the registry with phase, statement, strategy, and elapsed time — then a
// remote Cancel unwinds it with the typed kCancelled status, and every
// tracker balances back to zero.
TEST_F(ActiveQueryTest, ParkedQueryIsVisibleAndRemotelyCancellable) {
  // Warm the cache so the second execution is a hit that must compensate.
  {
    Transaction warm = db_.Begin();
    ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  }
  // Fresh delta rows so delta compensation has work to do.
  for (int64_t h = 11; h <= 13; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2014, 2, 5.0, &next_item_id_));
  }
  // Park the query's calling thread once, just before its delta
  // compensation fans out, for 3 s: long enough for the registry poll +
  // cancel below, far below the test timeout.
  ASSERT_OK(FaultInjector::Global().ArmFromSpec(
      "cache.delta_comp:delay:3000"));

  QueryContext ctx;
  std::atomic<bool> done{false};
  Status query_status;
  std::thread worker([&] {
    ScopedQueryContext scope(&ctx);
    Transaction txn = db_.Begin();
    auto result = cache_->Execute(query_, txn);
    query_status = result.status();
    done.store(true);
  });

  ActiveQueryRegistry::Info info = WaitForPhase("delta_compensation");
  ASSERT_NE(info.id, 0u) << "query never became visible in /queries";
  EXPECT_FALSE(info.statement.empty());
  EXPECT_EQ(info.strategy, "cached-full-pruning");
  EXPECT_GT(info.elapsed_ms, 0.0);
  EXPECT_FALSE(info.aborting);

  // The JSON view carries the same query.
  std::string json = ActiveQueryRegistry::Global().ListJson();
  EXPECT_NE(json.find("\"phase\":\"delta_compensation\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"id\":" + std::to_string(info.id)),
            std::string::npos);

  uint64_t cancels_before =
      EngineMetrics::Get().remote_cancellations->Value();
  ASSERT_TRUE(ActiveQueryRegistry::Global().Cancel(info.id));
  EXPECT_EQ(EngineMetrics::Get().remote_cancellations->Value(),
            cancels_before + 1);

  worker.join();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(query_status.code(), StatusCode::kCancelled)
      << query_status.ToString();
  EXPECT_EQ(ctx.abort_reason(), QueryAbortReason::kCancelled);

  // Bookkeeping balances: no live slots, no tracked query memory.
  EXPECT_EQ(ActiveQueryRegistry::Global().active_count(), 0u);
  EXPECT_TRUE(ActiveQueryRegistry::Global().List().empty());
  EXPECT_EQ(EngineMetrics::Get().active_queries->Value(), 0);
  EXPECT_EQ(MemoryTracker::Queries().used(), 0u);
}

TEST_F(ActiveQueryTest, CancelAfterCompletionIsFalse) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query_, txn).ok());
  // Whatever id that query had, it is gone now.
  EXPECT_TRUE(ActiveQueryRegistry::Global().List().empty());
}

TEST_F(ActiveQueryTest, ConcurrentQueriesGetDistinctSlots) {
  // Park queries briefly so several overlap; every one must get its own id
  // and every slot must be released afterwards. Each hit compensates the
  // whole delta, so every one reaches the parking point.
  cache_ = std::make_unique<AggregateCacheManager>(
      &db_, testing_util::PerHitCompensationConfig());
  {
    Transaction warm = db_.Begin();
    ASSERT_TRUE(cache_->Execute(query_, warm).ok());
  }
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 20,
                                               2014, 2, 5.0,
                                               &next_item_id_));
  ASSERT_OK(
      FaultInjector::Global().ArmFromSpec("cache.delta_comp:delay:100"));
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&] {
      Transaction txn = db_.Begin();
      if (!cache_->Execute(query_, txn).ok()) failures.fetch_add(1);
    });
  }
  // While they run, List() must never return a torn record (id 0 rows are
  // filtered; statements are null-terminated copies).
  for (int i = 0; i < 50; ++i) {
    for (const ActiveQueryRegistry::Info& info :
         ActiveQueryRegistry::Global().List()) {
      EXPECT_NE(info.id, 0u);
      EXPECT_FALSE(info.statement.empty());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ActiveQueryRegistry::Global().active_count(), 0u);
  EXPECT_EQ(MemoryTracker::Queries().used(), 0u);
}

TEST_F(ActiveQueryTest, ListTextRendersATable) {
  std::string text = ActiveQueryRegistry::Global().ListText();
  EXPECT_NE(text.find("active queries"), std::string::npos) << text;
}

}  // namespace
}  // namespace aggcache
