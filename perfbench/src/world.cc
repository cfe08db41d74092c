#include "world.h"

#include <exception>
#include <thread>

#include "obs/engine_metrics.h"
#include "verify/oracle.h"

namespace perfbench {
namespace {

using aggcache::AggregateQuery;
using aggcache::AggregateResult;
using aggcache::Status;
using aggcache::StatusOr;
using aggcache::Value;

constexpr double kMiB = 1024.0 * 1024.0;
/// Entry year of benchmark-inserted CH orders: the newest year, as a new
/// order would have.
constexpr int64_t kNewOrderYear = 2014;
constexpr size_t kLateItemsPerBatch = 3;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The paper's Listing 1 as SQL text.
std::string ProfitByCategorySql(int64_t fiscal_year) {
  return "SELECT ProductCategory.Name, SUM(Item.Price) AS Profit "
         "FROM Header, Item, ProductCategory "
         "WHERE Item.HeaderID = Header.HeaderID "
         "AND Item.CategoryID = ProductCategory.CategoryID "
         "AND ProductCategory.Language = 'ENG' "
         "AND Header.FiscalYear = " +
         std::to_string(fiscal_year) + " GROUP BY ProductCategory.Name";
}

/// Engine counters read around each traced read. Handles come from the
/// process-wide metrics registry.
struct ReadCounters {
  uint64_t pushdown = 0;
  uint64_t rows_scanned = 0;
  uint64_t tuples_joined = 0;
  uint64_t fallback_groupings = 0;
  uint64_t pool_tasks = 0;
  uint64_t pool_task_us = 0;

  static ReadCounters Now() {
    const aggcache::EngineMetrics& m = aggcache::EngineMetrics::Get();
    ReadCounters c;
    c.pushdown = m.pushdown_predicates->Value();
    c.rows_scanned = m.exec_rows_scanned->Value();
    c.tuples_joined = m.exec_tuples_joined->Value();
    c.fallback_groupings = m.exec_fallback_groupings->Value();
    c.pool_tasks = m.pool_tasks->Value();
    c.pool_task_us = m.pool_task_us->Sum();
    return c;
  }
};

/// Adds a large amount to one group of `result`, so a correct comparison
/// must report a difference.
void Perturb(AggregateResult* result) {
  if (result->empty()) return;
  aggcache::GroupKey key = result->groups().begin()->first;
  std::vector<Value> inputs(result->num_aggregates(), Value(1.0e6));
  result->Accumulate(key, inputs);
}

}  // namespace

std::vector<MaintenanceClock::Interval> MaintenanceClock::Take() {
  std::vector<Interval> out;
  out.swap(intervals_);
  return out;
}

void MaintenanceClock::Mark(bool opens) {
  Clock::time_point now = Clock::now();
  if (opens) {
    opened_ = now;
  } else {
    intervals_.push_back({opened_, now});
  }
}

StatusOr<std::unique_ptr<World>> World::Create(Workload workload,
                                               uint64_t seed) {
  std::unique_ptr<World> world(new World());
  world->db_ = std::make_unique<aggcache::Database>();
  aggcache::Database* db = world->db_.get();
  db->AddMergeObserver(world->clock_.first());
  if (workload == Workload::kChbenchWide) {
    aggcache::ChBenchConfig config;
    config.seed = seed;
    ASSIGN_OR_RETURN(aggcache::ChBenchDataset ch,
                     aggcache::ChBenchDataset::Create(db, config));
    world->ch_.emplace(std::move(ch));
    world->queries_ = {world->ch_->Q5(), world->ch_->Q9()};
    ASSIGN_OR_RETURN(world->orders_, db->GetTable("orders"));
    ASSIGN_OR_RETURN(world->neworder_, db->GetTable("neworder"));
    ASSIGN_OR_RETURN(world->orderline_, db->GetTable("orderline"));
  } else {
    aggcache::ErpConfig config;
    config.seed = seed;
    ASSIGN_OR_RETURN(aggcache::ErpDataset erp,
                     aggcache::ErpDataset::Create(db, config));
    world->erp_.emplace(std::move(erp));
    for (int64_t year : world->erp_->config().fiscal_years) {
      if (workload == Workload::kErpReporting) {
        world->sql_.push_back(ProfitByCategorySql(year));
        ASSIGN_OR_RETURN(aggcache::ParsedStatement parsed,
                         aggcache::ParseStatement(world->sql_.back(), *db));
        world->queries_.push_back(std::move(parsed.select));
      } else {
        world->queries_.push_back(world->erp_->ProfitByCategoryQuery(year));
      }
    }
  }
  for (const std::string& name : db->TableNames()) {
    ASSIGN_OR_RETURN(aggcache::Table * table, db->GetTable(name));
    world->tables_.push_back(table);
  }
  world->cache_ = std::make_unique<aggcache::AggregateCacheManager>(db);
  db->AddMergeObserver(world->clock_.second());
  world->options_.strategy = aggcache::ExecutionStrategy::kCachedFullPruning;
  world->options_.use_predicate_pushdown = true;
  for (const AggregateQuery& query : world->queries_) {
    RETURN_IF_ERROR(world->cache_->Prewarm(query));
  }
  world->clock_.Take();  // Set-up merges ran before the manager existed.
  return world;
}

World::~World() {
  // The manager unregisters itself; the clock's observers go too, so the
  // database never calls into a destroyed clock.
  cache_.reset();
  if (db_ != nullptr) {
    db_->RemoveMergeObserver(clock_.second());
    db_->RemoveMergeObserver(clock_.first());
  }
}

DatasetFacts World::Facts() const {
  DatasetFacts facts;
  if (erp_.has_value()) {
    facts.erp_main_headers = erp_->config().num_headers_main;
    facts.erp_main_items = static_cast<int64_t>(erp_->item()->TotalRows());
  }
  if (ch_.has_value()) {
    auto rows = [this](const char* name) {
      return static_cast<int64_t>(db_->GetTable(name).value()->TotalRows());
    };
    facts.ch_orders = rows("orders");
    facts.ch_customers = rows("customer");
    facts.ch_stock = rows("stock");
    facts.ch_neworders = rows("neworder");
    facts.ch_orderlines = rows("orderline");
  }
  return facts;
}

uint64_t World::DeltaRows() const {
  uint64_t rows = 0;
  for (const aggcache::Table* table : tables_) rows += table->DeltaRows();
  return rows;
}

Status World::ExecuteWrite(const Op& op, const OpSequence& sequence,
                           uint32_t id, SpanLog* spans) {
  switch (op.write) {
    case Op::Write::kBusinessObject: {
      aggcache::Rng rng(op.rng_seed);
      ScopedSpan span(spans, "storage.insert", id);
      return erp_->InsertBusinessObject(rng).status();
    }
    case Op::Write::kLateItems: {
      aggcache::Rng rng(op.rng_seed);
      ScopedSpan span(spans, "storage.insert", id);
      return erp_->InsertLateItems(rng, kLateItemsPerBatch);
    }
    case Op::Write::kPriceUpdate: {
      std::optional<aggcache::Transaction> txn;
      {
        ScopedSpan span(spans, "txn.begin", id);
        txn.emplace(db_->Begin());
      }
      ScopedSpan span(spans, "storage.insert", id);
      return erp_->item()->UpdateColumnByPk(*txn, Value(op.pk), "Price",
                                            Value(op.price));
    }
    case Op::Write::kNewOrder: {
      const NewOrder& order = sequence.orders[op.order];
      std::optional<aggcache::ScopedTransaction> txn;
      {
        ScopedSpan span(spans, "txn.begin", id);
        txn.emplace(db_->BeginAtomic());
      }
      auto insert = [&](aggcache::Table* table,
                        const std::vector<Value>& values) {
        ScopedSpan span(spans, "storage.insert", id);
        return table->Insert(*txn, values);
      };
      RETURN_IF_ERROR(insert(orders_, {Value(order.o_id), Value(order.c_id),
                                       Value(kNewOrderYear),
                                       Value(int64_t{0})}));
      RETURN_IF_ERROR(insert(neworder_, {Value(order.no_id),
                                         Value(order.o_id)}));
      int64_t ol_id = order.first_ol_id;
      for (const NewOrder::Line& line : order.lines) {
        RETURN_IF_ERROR(insert(orderline_,
                               {Value(ol_id++), Value(order.o_id),
                                Value(line.stock_id), Value(line.amount),
                                Value(kNewOrderYear)}));
      }
      ScopedSpan span(spans, "txn.commit", id);
      txn.reset();
      return Status::Ok();
    }
    case Op::Write::kNone:
      break;
  }
  return Status::Internal("write operation without a write kind");
}

Status World::ExecuteMerge(uint32_t id, SpanLog* spans, LayerTotals* layers) {
  ScopedSpan span(spans, "storage.merge", id);
  Status status = db_->MergeTables({"ProductCategory", "Header", "Item"});
  for (const MaintenanceClock::Interval& interval : clock_.Take()) {
    if (spans == nullptr) continue;
    spans->Add("cache.merge_maint", id, interval.start, interval.end);
    layers->merge_maint_ms += Ms(interval.end - interval.start);
  }
  return status;
}

PhaseResult World::Run(const OpSequence& sequence, SpanLog* spans,
                       bool perturb) {
  PhaseResult out;
  LayerTotals& layers = out.layers;
  Clock::duration verify_time{};
  aggcache::ExecutionOptions uncached;
  uncached.strategy = aggcache::ExecutionStrategy::kUncached;
  const Clock::time_point phase_start = Clock::now();

  for (size_t i = 0; i < sequence.ops.size(); ++i) {
    const Op& op = sequence.ops[i];
    const uint32_t id = static_cast<uint32_t>(i);
    ++out.attempted;

    if (op.kind == Op::Kind::kWrite) {
      Clock::time_point start = Clock::now();
      Status status;
      {
        ScopedSpan root(spans, "op.write", id);
        status = ExecuteWrite(op, sequence, id, spans);
      }
      out.write_ms.push_back(Ms(Clock::now() - start));
      if (!status.ok()) ++out.failed;
      continue;
    }
    if (op.kind == Op::Kind::kMerge) {
      Clock::time_point start = Clock::now();
      Status status;
      {
        ScopedSpan root(spans, "op.merge", id);
        status = ExecuteMerge(id, spans, &layers);
      }
      out.merge_ms.push_back(Ms(Clock::now() - start));
      if (!status.ok()) ++out.failed;
      continue;
    }

    // Read. Counters and delta size are sampled outside the timed call.
    ReadCounters before;
    aggcache::PruneStats prune_before;
    if (spans != nullptr) {
      layers.delta_rows += DeltaRows();
      before = ReadCounters::Now();
      prune_before = cache_->prune_stats();
    }
    const AggregateQuery* query = &queries_[op.query];
    std::optional<aggcache::ParsedStatement> parsed;
    std::optional<aggcache::Transaction> txn;
    Clock::time_point start = Clock::now();
    StatusOr<AggregateResult> result = [&]() -> StatusOr<AggregateResult> {
      ScopedSpan root(spans, "op.read", id);
      if (!sql_.empty()) {
        ScopedSpan span(spans, "sql.parse", id);
        StatusOr<aggcache::ParsedStatement> statement =
            aggcache::ParseStatement(sql_[op.query], *db_);
        if (!statement.ok()) return statement.status();
        parsed.emplace(std::move(statement).value());
        query = &parsed->select;
      }
      {
        ScopedSpan span(spans, "txn.begin", id);
        txn.emplace(db_->Begin());
      }
      ScopedSpan span(spans, "cache.execute", id);
      return cache_->Execute(*query, *txn, options_);
    }();
    out.read_ms.push_back(Ms(Clock::now() - start));
    if (!result.ok()) {
      ++out.failed;
      continue;
    }
    if (spans != nullptr) {
      aggcache::CacheExecStats stats = cache_->last_exec_stats();
      ReadCounters after = ReadCounters::Now();
      aggcache::PruneStats prune_after = cache_->prune_stats();
      layers.hits += stats.cache_hit ? 1 : 0;
      layers.rebuilds += stats.entry_rebuilt ? 1 : 0;
      layers.build_ms += stats.main_exec_ms;
      layers.main_comp_ms += stats.main_comp_ms;
      layers.delta_comp_ms += stats.delta_comp_ms;
      layers.subjoins_executed += stats.subjoins_executed;
      layers.prune_considered +=
          prune_after.considered - prune_before.considered;
      layers.prune_pruned +=
          prune_after.total_pruned() - prune_before.total_pruned();
      layers.pushdown_predicates += after.pushdown - before.pushdown;
      layers.rows_scanned += after.rows_scanned - before.rows_scanned;
      layers.tuples_joined += after.tuples_joined - before.tuples_joined;
      layers.fallback_groupings +=
          after.fallback_groupings - before.fallback_groupings;
      layers.pool_tasks += after.pool_tasks - before.pool_tasks;
      layers.pool_task_us += after.pool_task_us - before.pool_task_us;
    }
    if (op.verify) {
      Clock::time_point verify_start = Clock::now();
      ++out.verified;
      StatusOr<AggregateResult> expected =
          cache_->Execute(*query, *txn, uncached);
      AggregateResult actual = std::move(result).value();
      if (perturb) Perturb(&actual);
      if (!expected.ok() ||
          aggcache::DiffResults(expected.value(), actual,
                                query->AggregateFunctions())
              .has_value()) {
        ++out.mismatches;
      }
      verify_time += Clock::now() - verify_start;
    }
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - phase_start -
                                             verify_time)
                   .count();
  if (spans != nullptr) {
    size_t storage_bytes = 0;
    for (const aggcache::Table* table : tables_) {
      storage_bytes += table->ColumnByteSize();
    }
    layers.storage_mb = static_cast<double>(storage_bytes) / kMiB;
    layers.cache_mb = static_cast<double>(cache_->total_bytes()) / kMiB;
    layers.query_mem_peak_mb =
        static_cast<double>(
            aggcache::EngineMetrics::Get().mem_reserved_hwm_bytes->Value()) /
        kMiB;
  }
  return out;
}

size_t World::CheckAgainstOracle(bool perturb, std::string* detail) {
  aggcache::Transaction txn = db_->Begin();
  std::vector<StatusOr<AggregateResult>> cached;
  for (const AggregateQuery& query : queries_) {
    cached.push_back(cache_->Execute(query, txn, options_));
  }
  // The oracle is a nested-loop join, seconds per query at this scale; the
  // queries run on one thread each, after the timed phase.
  std::vector<std::optional<StatusOr<AggregateResult>>> expected(
      queries_.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < queries_.size(); ++i) {
    threads.emplace_back([this, &expected, &txn, i] {
      try {
        expected[i].emplace(
            aggcache::OracleExecute(*db_, queries_[i], txn.snapshot()));
      } catch (const std::exception& e) {
        expected[i].emplace(Status::Internal(e.what()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t mismatches = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    std::optional<std::string> diff;
    if (!cached[i].ok()) {
      diff = "cached execution failed: " + cached[i].status().ToString();
    } else if (!expected[i]->ok()) {
      diff = "oracle failed: " + expected[i]->status().ToString();
    } else {
      AggregateResult actual = std::move(cached[i]).value();
      if (perturb) Perturb(&actual);
      diff = aggcache::DiffResults(expected[i]->value(), actual,
                                   queries_[i].AggregateFunctions());
    }
    if (diff.has_value()) {
      if (mismatches == 0) {
        *detail = "query " + std::to_string(i) + ": " + *diff;
      }
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace perfbench
