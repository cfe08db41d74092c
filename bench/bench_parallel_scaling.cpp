// Parallel subjoin scaling — delta compensation and uncached execution of
// multi-table CH-benCH-style queries at 1/2/4/8 threads.
//
// The compensation subjoins of a t-table join (up to 2^t - 1 combinations
// without pruning) are independent, so they fan out across the worker pool
// and merge deterministically in enumeration order. This bench reports the
// speedup over the 1-thread configuration (which is bit-identical to the
// sequential engine: a serial pool runs the plain loop) and verifies that
// every thread count produces the exact same result.
//
// Real speedup requires real cores; the hardware_concurrency line makes it
// obvious when the host cannot show one.

#include "bench/harness.h"

#include <thread>

namespace aggcache {
namespace bench {
namespace {

constexpr int kReps = 5;

void Run(BenchContext& ctx) {
  PrintBanner("Parallel scaling", "subjoin fan-out at 1/2/4/8 threads",
              "compensation cost is the price of serving from the cache; "
              "parallel subjoins drive it down");
  std::printf("hardware_concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  Database db;
  ChBenchConfig config;
  config.num_warehouses = 2;
  config.num_items = ctx.QuickOr<size_t>(500, 2000);
  config.districts_per_warehouse = ctx.QuickOr<size_t>(4, 10);
  config.customers_per_district = ctx.QuickOr<size_t>(10, 30);
  config.orders_per_customer = ctx.QuickOr<size_t>(5, 10);
  config.avg_orderlines_per_order = 10;
  ctx.report().SetConfig("num_items", static_cast<int64_t>(config.num_items));
  ctx.report().SetConfig(
      "hardware_concurrency",
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  ChBenchDataset dataset =
      CheckOk(ChBenchDataset::Create(&db, config), "chbench");
  AggregateCacheManager cache(&db, PaperCacheConfig());

  const std::vector<size_t> thread_counts =
      ctx.quick() ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  // cached-no-pruning executes every compensation subjoin (the worst-case
  // fan-out the paper's pruning attacks); uncached unions all 2^t combos.
  ExecutionOptions delta_options;
  delta_options.strategy = ExecutionStrategy::kCachedNoPruning;
  ExecutionOptions uncached_options;
  uncached_options.strategy = ExecutionStrategy::kUncached;

  ResultTable table({"query", "tables", "threads", "delta_comp_ms",
                     "uncached_ms", "delta_speedup", "uncached_speedup",
                     "identical"});
  for (auto& [number, query] : dataset.AllQueries()) {
    CheckOk(cache.Prewarm(query), "prewarm");
    double delta_base = 0.0;
    double uncached_base = 0.0;
    AggregateResult cached_reference;
    AggregateResult uncached_reference;
    for (size_t threads : thread_counts) {
      ThreadPool::SetGlobalParallelism(threads);
      AggregateResult cached_result;
      LatencyStats delta_stats = MeasureMs(kReps, [&] {
        Transaction txn = db.Begin();
        cached_result = CheckOk(cache.Execute(query, txn, delta_options),
                                "cached execute");
      });
      double delta_ms = delta_stats.median_ms;
      AggregateResult uncached_result;
      LatencyStats uncached_stats = MeasureMs(kReps, [&] {
        Transaction txn = db.Begin();
        uncached_result = CheckOk(cache.Execute(query, txn, uncached_options),
                                  "uncached execute");
      });
      double uncached_ms = uncached_stats.median_ms;
      std::map<std::string, std::string> labels = {
          {"query", StrFormat("Q%d", number)},
          {"threads", StrFormat("%zu", threads)}};
      auto with_mode = [&labels](const char* mode) {
        std::map<std::string, std::string> l = labels;
        l["mode"] = mode;
        return l;
      };
      ctx.report().AddLatency("query_ms", with_mode("delta_comp"),
                              delta_stats);
      ctx.report().AddLatency("query_ms", with_mode("uncached"),
                              uncached_stats);
      bool identical = true;
      if (threads == thread_counts.front()) {
        delta_base = delta_ms;
        uncached_base = uncached_ms;
        cached_reference = cached_result;
        uncached_reference = uncached_result;
      } else {
        // Exact comparison (tolerance 0) per strategy: enumeration-order
        // merging makes every thread count reproduce the 1-thread (i.e.
        // sequential) result bit for bit.
        identical = cached_result.ApproxEquals(cached_reference, 0.0) &&
                    uncached_result.ApproxEquals(uncached_reference, 0.0);
      }
      table.AddRow({StrFormat("Q%d", number),
                    StrFormat("%zu", query.tables.size()),
                    StrFormat("%zu", threads), FormatMs(delta_ms),
                    FormatMs(uncached_ms),
                    StrFormat("%.2fx", delta_base / delta_ms),
                    StrFormat("%.2fx", uncached_base / uncached_ms),
                    identical ? "yes" : "NO"});
      if (threads != thread_counts.front()) {
        ctx.report().AddScalar("delta_speedup", labels,
                               delta_base / delta_ms, "x");
      }
      if (!identical) {
        std::fprintf(stderr,
                     "FATAL: results diverge at %zu threads for Q%d\n",
                     threads, number);
        std::abort();
      }
    }
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  // --threads=N restricts the sweep's pool ceiling implicitly by being
  // applied first; the sweep below still sets each configuration explicitly.
  aggcache::bench::ApplyThreadsFlag(argc, argv);
  aggcache::BenchContext ctx(argc, argv, "parallel_scaling");
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
