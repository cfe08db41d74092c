// Section 6.3 — Insert overhead of referential-integrity checking and of
// the matching-dependency tid lookup, as a fixed-iteration microbenchmark.
//
// Paper result: inserting an Item row without any checks takes about 50% of
// the time of an insert with referential-integrity checks; the additional
// tid lookup costs 20-30% of the RI-check time (and can be combined with
// the RI check, which this implementation does: one primary-key probe
// serves both).

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

struct Fixture {
  Fixture(size_t num_headers) {
    ErpConfig config;
    config.num_headers_main = num_headers;
    config.num_categories = 50;
    // The experiment only exercises the Item insert path; keep the
    // preloaded item population minimal so fixture setup stays fast.
    config.avg_items_per_header = 1;
    dataset = std::make_unique<ErpDataset>(
        CheckOk(ErpDataset::Create(&db, config), "erp"));
    num_headers_loaded = num_headers;
  }

  Database db;
  std::unique_ptr<ErpDataset> dataset;
  size_t num_headers_loaded = 0;
  int64_t next_item_id = 100000000;
};

/// Times `iterations` single-row Item inserts, each in its own
/// transaction, on a fresh fixture (whose setup is not timed); returns
/// wall-clock nanoseconds per inserted item.
double InsertNsPerItem(size_t num_headers, int64_t iterations,
                       const InsertOptions& options) {
  Fixture fixture(num_headers);
  Table* item = fixture.dataset->item();
  Rng rng(5);
  int64_t max_header = static_cast<int64_t>(fixture.num_headers_loaded);
  Stopwatch watch;
  for (int64_t i = 0; i < iterations; ++i) {
    Transaction txn = fixture.db.Begin();
    CheckOk(item->Insert(txn,
                         {Value(fixture.next_item_id++),
                          Value(rng.UniformInt(1, max_header)),
                          Value(int64_t{1}), Value(10.0), Value(int64_t{1})},
                         options),
            "item insert");
  }
  return static_cast<double>(watch.ElapsedNanos()) /
         static_cast<double>(iterations);
}

InsertOptions MakeOptions(bool ri_check, bool tid_lookup) {
  InsertOptions options;
  options.check_referential_integrity = ri_check;
  options.maintain_tid_columns = tid_lookup;
  return options;
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  using namespace aggcache;
  using namespace aggcache::bench;
  PrintBanner(
      "Section 6.3", "item insert overhead (RI check + MD tid lookup)",
      "no-checks insert ~50% of insert with RI checks; tid lookup adds "
      "20-30% of the RI-check time, shared with the RI probe");
  BenchContext ctx(argc, argv, "sec63_insert_overhead");
  // One fixed-count timed pass per (case, header count); fixture setup
  // loads the full header table, so it stays outside the timed loop.
  const int64_t iterations = ctx.QuickOr<int64_t>(5000, 50000);
  const std::vector<int64_t> header_counts =
      ctx.quick() ? std::vector<int64_t>{10000}
                  : std::vector<int64_t>{10000, 100000};
  ctx.report().SetConfig("iterations", iterations);
  struct Case {
    const char* name;
    InsertOptions options;
  };
  const Case cases[] = {
      {"BM_InsertNoChecks", MakeOptions(false, false)},
      {"BM_InsertWithRiCheck", MakeOptions(true, false)},
      // Both enabled: the production path.
      {"BM_InsertWithRiCheckAndTidLookup", MakeOptions(true, true)},
  };
  ResultTable table({"case", "ns/item"});
  for (const Case& c : cases) {
    for (int64_t headers : header_counts) {
      double ns_per_item = InsertNsPerItem(static_cast<size_t>(headers),
                                           iterations, c.options);
      // Case labels keep the "<name>/<arg>/iterations:<n>" form of the
      // committed baseline so bench_diff matches samples across versions.
      std::string label =
          StrFormat("%s/%lld/iterations:%lld", c.name,
                    static_cast<long long>(headers),
                    static_cast<long long>(iterations));
      ctx.report().AddScalar("insert_ns_per_item", {{"case", label}},
                             ns_per_item, "ns");
      table.AddRow({label, StrFormat("%.1f", ns_per_item)});
    }
  }
  table.Print();
  return ctx.Finish() ? 0 : 1;
}
