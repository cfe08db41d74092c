// Cooperative shared delta scans: N concurrent consumers over one delta
// partition must each receive exactly the selection vector a solo
// SelectRowsRange would produce, regardless of who leads, who attaches,
// and where in the block walk the attach lands. Run under
// -DAGGCACHE_SANITIZE=thread to validate the session protocol.

#include "query/shared_scan.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "query/executor.h"
#include "query/vector_kernels.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class SharedScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    // Enough delta rows for several 1024-row blocks, so followers can
    // attach mid-walk and exercise the prefix self-scan path.
    Transaction txn = db_.Begin();
    for (int64_t h = 1; h <= kHeaders; ++h) {
      ASSERT_OK(header_->Insert(txn, {Value(h), Value(2010 + h % 5)}));
    }
    snapshot_ = db_.txn_manager().GlobalSnapshot();
  }

  void TearDown() override {
    SharedScanManager::OverrideEnabledForTest(-1);
    ThreadPool::SetGlobalParallelism(1);
  }

  SelectionInput InputFor(const CompiledColumnFilter* filter) const {
    SelectionInput input;
    input.snapshot = &snapshot_;
    if (filter != nullptr) {
      input.filters = std::span<const CompiledColumnFilter>(filter, 1);
    }
    return input;
  }

  static constexpr int64_t kHeaders = 6000;  // ~6 selection blocks.

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  Snapshot snapshot_;
};

TEST_F(SharedScanTest, SoloScanLeadsAndMatchesSelectRowsRange) {
  const Partition& delta = header_->group(0).delta;
  ASSERT_GE(delta.num_rows(), SharedScanManager::kMinRows);

  Value operand(int64_t{2012});
  CompiledColumnFilter filter;
  ASSERT_TRUE(CompileColumnFilter(delta.column(1), CompareOp::kEq, operand,
                                  &filter));
  SelectionInput input = InputFor(&filter);

  std::vector<uint32_t> expected;
  SelectRowsRange(delta, input, 0, static_cast<uint32_t>(delta.num_rows()),
                  &expected);
  ASSERT_FALSE(expected.empty());

  std::vector<uint32_t> got;
  SharedScanManager::Result result =
      SharedScanManager::Instance().Scan(delta, input, &got);
  EXPECT_TRUE(result.led);
  EXPECT_FALSE(result.attached);
  EXPECT_GT(result.batches, 0u);
  EXPECT_EQ(got, expected);
}

TEST_F(SharedScanTest, ConcurrentConsumersWithDistinctFiltersAgree) {
  const Partition& delta = header_->group(0).delta;
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;

  // One filter per year; threads cycle through them so concurrent
  // consumers of one session carry different predicates.
  std::vector<Value> operands;
  std::vector<CompiledColumnFilter> filters(5);
  operands.reserve(5);
  for (int y = 0; y < 5; ++y) {
    operands.emplace_back(int64_t{2010 + y});
    ASSERT_TRUE(CompileColumnFilter(delta.column(1), CompareOp::kEq,
                                    operands.back(), &filters[y]));
  }
  std::vector<std::vector<uint32_t>> expected(5);
  for (int y = 0; y < 5; ++y) {
    SelectionInput input = InputFor(&filters[y]);
    SelectRowsRange(delta, input, 0,
                    static_cast<uint32_t>(delta.num_rows()), &expected[y]);
    ASSERT_FALSE(expected[y].empty());
  }

  std::atomic<size_t> leads{0};
  std::atomic<size_t> attaches{0};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        int year = (t + round) % 5;
        SelectionInput input = InputFor(&filters[year]);
        std::vector<uint32_t> got;
        SharedScanManager::Result result =
            SharedScanManager::Instance().Scan(delta, input, &got);
        if (result.led) leads.fetch_add(1);
        if (result.attached) attaches.fetch_add(1);
        if (result.led == result.attached) mismatches.fetch_add(1);
        if (got != expected[year]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // Every scan either led a session or attached to one — never both,
  // never neither.
  EXPECT_EQ(leads.load() + attaches.load(),
            static_cast<size_t>(kThreads) * kRounds);
  EXPECT_GE(leads.load(), 1u);
}

TEST_F(SharedScanTest, UnfilteredConsumersSeeEveryVisibleRow) {
  const Partition& delta = header_->group(0).delta;
  SelectionInput input = InputFor(nullptr);
  std::vector<uint32_t> expected;
  SelectRowsRange(delta, input, 0, static_cast<uint32_t>(delta.num_rows()),
                  &expected);

  constexpr int kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        SelectionInput in = InputFor(nullptr);
        std::vector<uint32_t> got;
        SharedScanManager::Instance().Scan(delta, in, &got);
        if (got != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST_F(SharedScanTest, EnabledOverrideControlsGate) {
  SharedScanManager::OverrideEnabledForTest(0);
  EXPECT_FALSE(SharedScanManager::Enabled());
  SharedScanManager::OverrideEnabledForTest(1);
  EXPECT_TRUE(SharedScanManager::Enabled());
  SharedScanManager::OverrideEnabledForTest(-1);
  // Default: enabled.
  EXPECT_TRUE(SharedScanManager::Enabled());
}

TEST_F(SharedScanTest, ConcurrentExecutorQueriesMatchSharedScanOffBaseline) {
  ThreadPool::SetGlobalParallelism(4);
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .GroupBy("Header", "FiscalYear")
                             .CountStar("n")
                             .Build();

  SharedScanManager::OverrideEnabledForTest(0);
  Executor baseline_executor(&db_);
  auto baseline = baseline_executor.ExecuteUncached(query, snapshot_);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ExecutorStats off_stats = baseline_executor.stats().Snapshot();
  EXPECT_EQ(off_stats.shared_scan_leads, 0u);
  EXPECT_EQ(off_stats.shared_scan_attaches, 0u);

  SharedScanManager::OverrideEnabledForTest(1);
  constexpr int kThreads = 6;
  std::atomic<size_t> mismatches{0};
  std::atomic<uint64_t> leads{0};
  std::atomic<uint64_t> attaches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Executor executor(&db_);
      for (int round = 0; round < 8; ++round) {
        auto result = executor.ExecuteUncached(query, snapshot_);
        if (!result.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        std::string diff;
        if (!result->ApproxEquals(*baseline, 1e-9, &diff)) {
          mismatches.fetch_add(1);
        }
      }
      ExecutorStats stats = executor.stats().Snapshot();
      leads.fetch_add(stats.shared_scan_leads);
      attaches.fetch_add(stats.shared_scan_attaches);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  // Every query scanned the (large) Header delta cooperatively: each scan
  // is accounted as exactly one lead or one attach.
  EXPECT_EQ(leads.load() + attaches.load(),
            static_cast<uint64_t>(kThreads) * 8);
}

}  // namespace
}  // namespace aggcache
