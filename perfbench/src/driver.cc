// perfbench driver: runs one workload against the aggcache library through
// its public API and prints the metrics named in BENCHMARK.json.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>] [--perturb] [--print-ops-hash]
//
// --trace 0 runs the operation sequence of --seconds / 3 in three
// repetitions and prints the median end-to-end metrics; --trace 1 runs it
// once untraced and once traced and prints the per-layer metrics. The last
// line of stdout is the result JSON. Exit status: 0 when every output matched,
// 1 on a failed operation or correctness mismatch, 2 on bad usage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "aggcache/aggcache.h"
#include "ops.h"
#include "spans.h"
#include "world.h"

namespace perfbench {
namespace {

/// Pool size: the client thread plus one worker, half of a 4-vCPU host.
/// Fixed so results do not depend on the host's core count, while subjoin
/// fan-out still happens.
constexpr size_t kPoolParallelism = 2;
/// Repetitions per end-to-end run, each on a fresh set-up; every metric
/// is the median over them.
constexpr int kReps = 3;
/// Set-ups per end-to-end run; setup_s is their median. Two more than the
/// repetitions: a set-up is short (0.3-0.6 s), so single host stalls move
/// it most.
constexpr int kSetups = kReps + 2;

struct Args {
  Workload workload = Workload::kErpReporting;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  bool perturb = false;
  bool print_ops_hash = false;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<erp_reporting|chbench_wide|erp_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--perturb] [--print-ops-hash]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--perturb") {
      args->perturb = true;
    } else if (flag == "--print-ops-hash") {
      args->print_ops_hash = true;
    } else if (flag == "--workload") {
      const char* v = value();
      if (v == nullptr || !ParseWorkload(v, &args->workload)) {
        *error = "unknown workload";
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      const char* v = value();
      char* end = nullptr;
      if (v == nullptr || *v == '-') {
        *error = "--seed needs a non-negative integer";
        return false;
      }
      args->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        *error = "--seed needs a non-negative integer";
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      args->seconds = v == nullptr ? 0 : std::strtod(v, &end);
      if (v == nullptr || end == v || *end != '\0' ||
          !(args->seconds > 0 && args->seconds <= 600)) {
        *error = "--seconds needs a number in (0, 600]";
        return false;
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 &&
                           std::strcmp(v, "1") != 0)) {
        *error = "--trace needs 0 or 1";
        return false;
      }
      args->trace = v[0] - '0';
    } else if (flag == "--trace-out") {
      const char* v = value();
      if (v == nullptr) {
        *error = "--trace-out needs a path";
        return false;
      }
      args->trace_out = v;
    } else {
      *error = "unknown argument " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds ||
      (args->trace < 0 && !args->print_ops_hash)) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

/// Nearest-rank percentile; `values` must be non-empty.
double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// False for metrics printed for diagnosis but absent from the result.
  bool gated = true;
};

void PrintTable(const std::vector<Metric>& metrics) {
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PerOp(double total, size_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

std::unique_ptr<World> SetUp(const Args& args, double* seconds) {
  Clock::time_point start = Clock::now();
  aggcache::StatusOr<std::unique_ptr<World>> world =
      World::Create(args.workload, args.seed);
  if (seconds != nullptr) {
    *seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  if (!world.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 world.status().ToString().c_str());
    return nullptr;
  }
  return std::move(world).value();
}

void PrintConfig(const Args& args, const OpSequence& ops,
                 const DatasetFacts& facts, uint64_t ops_seed) {
  std::string config = "{";
  config += "\"workload\": " + JsonString(WorkloadName(args.workload));
  config += ", \"seed\": " + std::to_string(args.seed);
  config += ", \"ops_seed\": " + std::to_string(ops_seed);
  config += ", \"seconds\": " + JsonNumber(args.seconds);
  config += ", \"trace\": " + std::to_string(args.trace);
  config += ", \"clients\": 1, \"loop\": \"closed\"";
  config += ", \"repetitions\": " +
            std::to_string(args.trace == 0 ? kReps : 2);
  config += ", \"pool_size\": " +
            std::to_string(aggcache::ThreadPool::Global().parallelism());
  config += ", \"ops\": " + std::to_string(ops.ops.size());
  config += ", \"mix\": " + JsonString(DescribeMix(ops));
  config += ", \"merge_every_objects\": " +
            std::to_string(ops.merge_every_objects);
  config += ", \"ops_hash\": " + JsonString(std::to_string(HashOps(ops)));
  if (facts.erp_main_headers > 0) {
    config += ", \"erp_main_headers\": " +
              std::to_string(facts.erp_main_headers);
    config += ", \"erp_main_items\": " + std::to_string(facts.erp_main_items);
  }
  if (facts.ch_orders > 0) {
    config += ", \"ch_orders\": " + std::to_string(facts.ch_orders);
    config += ", \"ch_orderlines\": " + std::to_string(facts.ch_orderlines);
    config += ", \"ch_stock\": " + std::to_string(facts.ch_stock);
  }
  config += ", \"nproc\": " +
            std::to_string(std::thread::hardware_concurrency());
  config += ", \"cpu_model\": " + JsonString(CpuModel());
  config += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  config += ", \"compiler\": " + JsonString(__VERSION__);
  config += "}";
  std::printf("# config %s\n", config.c_str());
}

double OpsPerSecond(const PhaseResult& phase) {
  return phase.wall_s > 0 ? static_cast<double>(phase.attempted) / phase.wall_s
                          : 0.0;
}

/// One repetition's end-to-end metrics; the ungated ones are printed only.
/// The gated read tail is p90: on a shared 4-vCPU host, p95 and p99 move
/// with host scheduling stalls by up to 35-45% between runs (README.md).
/// error_rate is not gated because a correct run has none (`failed` and
/// `correct` carry it); merge_p50_ms because only erp_ingest merges.
std::vector<Metric> RepMetrics(const PhaseResult& phase) {
  std::vector<Metric> out = {
      {"ops_per_s", OpsPerSecond(phase), "1/s"},
      {"read_p50_ms", Percentile(phase.read_ms, 0.50), "ms"},
      {"read_p90_ms", Percentile(phase.read_ms, 0.90), "ms"},
      {"write_p50_ms", Percentile(phase.write_ms, 0.50), "ms"},
      {"read_p95_ms", Percentile(phase.read_ms, 0.95), "ms", false},
      {"read_p99_ms", Percentile(phase.read_ms, 0.99), "ms", false},
      {"reads", static_cast<double>(phase.read_ms.size()), "count", false},
  };
  if (!phase.merge_ms.empty()) {
    out.push_back(
        {"merge_p50_ms", Percentile(phase.merge_ms, 0.50), "ms", false});
  }
  return out;
}

std::vector<Metric> LayerMetrics(const OpSequence& ops,
                                 const PhaseResult& traced,
                                 const SpanLog& spans,
                                 double untraced_ops_per_s) {
  const LayerTotals& t = traced.layers;
  const size_t reads = ops.reads;
  const size_t writes = ops.writes;
  const size_t merges = ops.merges;
  double execute_us = spans.TotalUs("cache.execute");
  double phases_us = 1000.0 * (t.build_ms + t.main_comp_ms + t.delta_comp_ms);
  double merge_ms = spans.TotalUs("storage.merge") / 1000.0;
  double traced_ops_per_s = OpsPerSecond(traced);
  return {
      {"sql.parse_us", PerOp(spans.TotalUs("sql.parse"), reads), "us"},
      {"txn.begin_us", PerOp(spans.TotalUs("txn.begin"), reads + writes),
       "us"},
      {"cache.execute_us", PerOp(execute_us, reads), "us"},
      {"cache.delta_comp_us", PerOp(1000.0 * t.delta_comp_ms, reads), "us"},
      {"cache.main_comp_us", PerOp(1000.0 * t.main_comp_ms, reads), "us"},
      {"cache.build_ms", PerOp(t.build_ms, reads), "ms"},
      {"cache.overhead_us", PerOp(execute_us - phases_us, reads), "us"},
      {"cache.hit_ratio", PerOp(static_cast<double>(t.hits), reads), "ratio"},
      {"cache.rebuilds", static_cast<double>(t.rebuilds), "count"},
      {"cache.merge_maint_ms", PerOp(t.merge_maint_ms, merges), "ms"},
      {"cache.mb", t.cache_mb, "MB"},
      {"objectaware.subjoins_executed",
       PerOp(static_cast<double>(t.subjoins_executed), reads), "count"},
      {"objectaware.pruned_ratio",
       PerOp(static_cast<double>(t.prune_pruned), t.prune_considered),
       "ratio"},
      {"objectaware.pushdown_predicates",
       PerOp(static_cast<double>(t.pushdown_predicates), reads), "count"},
      {"query.rows_scanned", PerOp(static_cast<double>(t.rows_scanned), reads),
       "count"},
      {"query.tuples_joined",
       PerOp(static_cast<double>(t.tuples_joined), reads), "count"},
      {"query.fallback_groupings",
       PerOp(static_cast<double>(t.fallback_groupings), reads), "count"},
      {"common.pool_tasks", PerOp(static_cast<double>(t.pool_tasks), reads),
       "count"},
      {"common.pool_task_us",
       PerOp(static_cast<double>(t.pool_task_us), reads), "us"},
      {"storage.insert_us", PerOp(spans.TotalUs("storage.insert"), writes),
       "us"},
      {"storage.delta_rows", PerOp(static_cast<double>(t.delta_rows), reads),
       "count"},
      {"storage.merge_rebuild_ms", PerOp(merge_ms - t.merge_maint_ms, merges),
       "ms"},
      {"storage.mb", t.storage_mb, "MB"},
      {"runtime.query_mem_peak_mb", t.query_mem_peak_mb, "MB"},
      {"bench.trace_overhead",
       traced_ops_per_s > 0 ? untraced_ops_per_s / traced_ops_per_s - 1.0
                            : 0.0,
       "ratio"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  aggcache::ThreadPool::SetGlobalParallelism(kPoolParallelism);

  // The dataset comes from the seed directly; the operation sequence from
  // a second stream derived from it.
  const uint64_t ops_seed = args.seed * 0x9E3779B97F4A7C15ull + 1;
  double setup_seconds = 0;
  std::unique_ptr<World> world = SetUp(args, &setup_seconds);
  if (world == nullptr) return 1;
  const DatasetFacts facts = world->Facts();
  const OpSequence ops =
      GenerateOps(args.workload, ops_seed,
                  OpsForSeconds(args.workload, args.seconds / kReps), facts);
  if (args.print_ops_hash) {
    std::printf("ops_hash=%llu ops=%zu mix=%s\n",
                static_cast<unsigned long long>(HashOps(ops)), ops.ops.size(),
                DescribeMix(ops).c_str());
    return 0;
  }
  PrintConfig(args, ops, facts, ops_seed);
  std::fflush(stdout);

  size_t attempted = 0, failed = 0;
  auto account = [&](const PhaseResult& phase) {
    attempted += phase.attempted;
    failed += phase.failed + phase.mismatches;
    if (phase.mismatches > 0) {
      std::printf("# MISMATCH: %zu of %zu sampled reads differ from the "
                  "uncached result\n",
                  phase.mismatches, phase.verified);
    }
  };

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Each repetition sets up a fresh dataset and runs the whole sequence;
    // every metric is the median over repetitions, which damps the host's
    // slow speed swings (see README.md, noise floor).
    std::vector<double> setup_s = {setup_seconds};
    std::vector<std::vector<Metric>> reps;
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0) {
        world.reset();
        world = SetUp(args, &setup_seconds);
        if (world == nullptr) return 1;
        setup_s.push_back(setup_seconds);
      }
      if (i < kSetups - kReps) continue;  // This set-up feeds setup_s only.
      PhaseResult phase = world->Run(ops, nullptr, args.perturb);
      account(phase);
      reps.push_back(RepMetrics(phase));
    }
    const double resident_mb = PeakRssMb();
    std::printf("%-34s %12s  %s\n", "metric", "median", "per repetition");
    for (size_t i = 0; i < reps[0].size(); ++i) {
      std::vector<double> values;
      std::string line;
      for (const std::vector<Metric>& rep : reps) {
        values.push_back(rep[i].value);
        char cell[32];
        std::snprintf(cell, sizeof(cell), " %11.6g", rep[i].value);
        line += cell;
      }
      Metric median = reps[0][i];
      median.value = Percentile(values, 0.50);
      std::printf("%-34s %12.6g %s  %s\n", median.name.c_str(), median.value,
                  line.c_str(), median.unit.c_str());
      if (median.gated) metrics.push_back(median);
    }
    metrics.push_back({"resident_mb", resident_mb, "MB"});
    metrics.push_back({"setup_s", Percentile(setup_s, 0.50), "s"});
    std::printf("%-34s %12.6g  MB\n%-34s %12.6g ", "resident_mb",
                resident_mb, "setup_s", metrics.back().value);
    for (double seconds : setup_s) std::printf(" %11.6g", seconds);
    std::printf("  s\n");
  } else {
    PhaseResult untraced = world->Run(ops, nullptr, args.perturb);
    account(untraced);
    world.reset();
    world = SetUp(args, nullptr);
    if (world == nullptr) return 1;
    SpanLog spans;
    PhaseResult traced = world->Run(ops, &spans, args.perturb);
    account(traced);
    metrics = LayerMetrics(ops, traced, spans, OpsPerSecond(untraced));
    std::printf("# self time per layer (traced phase, %zu spans)\n%s",
                spans.size(), spans.SelfTimeTable().c_str());
    PrintTable(metrics);
    if (!args.trace_out.empty()) {
      if (spans.WriteChromeTrace(args.trace_out)) {
        std::printf("# trace written to %s\n", args.trace_out.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
      }
    }
  }

  std::string detail;
  size_t oracle_mismatches = world->CheckAgainstOracle(args.perturb, &detail);
  attempted += world->num_queries();
  failed += oracle_mismatches;
  if (oracle_mismatches > 0) {
    std::printf("# MISMATCH against the oracle: %s\n", detail.c_str());
  }
  std::printf("%-34s %12.6g  ratio\n", "error_rate",
              PerOp(static_cast<double>(failed), attempted));
  const bool correct = failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
