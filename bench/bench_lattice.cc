// bench_lattice — measures the shared-scan grouping-set lattice against
// computing every level on its own and reports per-DOP timings as JSON
// (BENCH_lattice.json, also echoed to stdout).
//
// The workload is a 3-dim CUBE (8 levels) of Vpct + sum over the paper's
// sales fact: the CUBE scans the fact once for the finest level and answers
// every coarser level by re-aggregating its partials. The seed reference is
// one single-level statement per CUBE level (GROUP BY that level, the Vpct BY
// list cut to the level), each its own fused scan, with the summary cache
// off, at DOP=1; "speedup_vs_seed" is seed_ms / cube_ms measured on the same
// host in the same process, so the ratio transfers across CI hardware. The
// DOP=1 row is the guard: the CUBE must stay >= 2x faster than the
// single-level statements (enforced at full size; sub-5ms smoke timings
// only warn).
//
// A second section measures the cache story: with the summary cache on,
// every lattice level lands under its own mergeable recipe, an APPEND
// delta-merges all of them, and the follow-up query must answer every level
// straight from the cache (hard failure if any level recomputes).
//
// Flags / environment:
//   --smoke                    tiny rows (TSan/CI smoke)
//   PCTAGG_LATTICE_BENCH_ROWS  sales rows (default 1000000)
//   PCTAGG_LATTICE_BENCH_REPS  repetitions, best-of (default 3)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/database.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace {

using pctagg::PctDatabase;
using pctagg::QueryOptions;
using pctagg::Result;
using pctagg::StrFormat;
using pctagg::Table;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

constexpr size_t kDops[] = {1, 2, 4, 8};

// 3-dim CUBE: monthNo(12) x dweek(7) x store(100) => 8 levels, ~8400 groups
// at the finest. Vpct rides along so the per-level assembly work (totals
// join + divide) is part of both sides, not just the scans.
constexpr const char* kCubeSql =
    "SELECT monthNo, dweek, store, Vpct(salesAmt BY dweek) AS pct, "
    "sum(salesAmt) AS s FROM sales GROUP BY CUBE(monthNo, dweek, store)";

// The seed reference: the CUBE's 8 levels as single-level statements. A
// level without dweek has no BY column left (every group is 100% of itself),
// so it keeps only the sum.
std::vector<std::string> SingleLevelSqls() {
  const char* const cols[] = {"monthNo", "dweek", "store"};
  std::vector<std::string> sqls;
  for (unsigned mask = 0; mask < 8; ++mask) {
    std::vector<std::string> level;
    for (unsigned c = 0; c < 3; ++c) {
      if ((mask & (1u << c)) != 0) level.push_back(cols[c]);
    }
    const bool has_dweek = (mask & 2u) != 0;
    std::string select = pctagg::Join(level, ", ");
    if (!select.empty()) select += ", ";
    if (has_dweek) select += "Vpct(salesAmt BY dweek) AS pct, ";
    std::string sql = "SELECT " + select + "sum(salesAmt) AS s FROM sales";
    if (!level.empty()) sql += " GROUP BY " + pctagg::Join(level, ", ");
    sqls.push_back(std::move(sql));
  }
  return sqls;
}

// Runs `sqls` back to back on the partial path with the cache off; returns
// the wall time and the total result rows.
double QueriesMs(const PctDatabase& db, const std::vector<std::string>& sqls,
                 size_t dop, size_t* out_rows) {
  QueryOptions options;
  options.use_summary_cache = false;
  options.degree_of_parallelism = dop;
  *out_rows = 0;
  pctagg::Stopwatch timer;
  for (const std::string& sql : sqls) {
    Result<Table> r = db.QueryPartial(sql, options);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s: %s\n", sql.c_str(),
                   r.status().ToString().c_str());
      std::abort();
    }
    *out_rows += r.value().num_rows();
  }
  return timer.ElapsedMillis();
}

// Counts the per-level trace nodes (fused scans + rollups) and how many of
// them the summary cache answered.
void CountLevelNodes(const pctagg::obs::QueryTrace& trace, size_t* levels,
                     size_t* hits) {
  *levels = 0;
  *hits = 0;
  for (const auto& node : trace.root().children) {
    const bool level_node = node->detail.rfind("fused-scan:", 0) == 0 ||
                            node->detail.rfind("lattice-rollup:", 0) == 0;
    if (!level_node) continue;
    ++*levels;
    if (node->stats.cache_hit) ++*hits;
  }
}

template <typename Fn>
double BestOf(size_t reps, Fn&& fn) {
  double best = fn();
  for (size_t i = 1; i < reps; ++i) {
    double ms = fn();
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  size_t rows = EnvSize("PCTAGG_LATTICE_BENCH_ROWS", smoke ? 20000 : 1000000);
  size_t reps = EnvSize("PCTAGG_LATTICE_BENCH_REPS", smoke ? 1 : 3);
  size_t num_cores = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[setup] generating sales n=%zu (cores=%zu)...\n", rows,
               num_cores);
  PctDatabase db;
  if (!db.CreateTable("sales", pctagg::GenerateSales(rows)).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    return 1;
  }

  // --- CUBE vs single-level statements per DOP. The single-level
  // statements at DOP=1 are the seed reference (one fused scan per lattice
  // level, the plan a planner without the lattice would emit 8 times over).
  const std::vector<std::string> single_level = SingleLevelSqls();
  size_t seed_rows = 0;
  double seed_ms = BestOf(
      reps, [&] { return QueriesMs(db, single_level, 1, &seed_rows); });
  std::fprintf(stderr, "[lattice] single-level dop=1: %.2f ms (%zu rows)\n",
               seed_ms, seed_rows);

  std::string agg_json;
  double shared_dop1_ms = 0;
  for (size_t dop : kDops) {
    size_t shared_rows = 0;
    double ms = BestOf(
        reps, [&] { return QueriesMs(db, {kCubeSql}, dop, &shared_rows); });
    if (shared_rows != seed_rows) {
      std::fprintf(stderr,
                   "row count mismatch: cube %zu vs single-level %zu\n",
                   shared_rows, seed_rows);
      return 1;
    }
    if (dop == 1) shared_dop1_ms = ms;
    std::fprintf(stderr,
                 "[lattice] cube dop=%zu: %.2f ms (%.2fx vs single-level)\n",
                 dop, ms, seed_ms / ms);
    agg_json += StrFormat(
        "      {\"dop\": %zu, \"ms\": %.3f, \"speedup_vs_seed\": %.3f}%s\n",
        dop, ms, seed_ms / ms, dop == 8 ? "" : ",");
  }
  double dop1_speedup = seed_ms / shared_dop1_ms;
  double dop1_regression_pct = (shared_dop1_ms - seed_ms) / seed_ms * 100.0;

  // --- Cache story: fill every level's recipe, APPEND a 1% delta (merged
  // into every entry), and require the follow-up query to be all cache hits.
  PctDatabase cached_db;
  cached_db.EnableSummaryCache(true);
  if (!cached_db.CreateTable("sales", pctagg::GenerateSales(rows)).ok()) {
    std::fprintf(stderr, "cached table setup failed\n");
    return 1;
  }
  if (!cached_db.Query(kCubeSql).ok()) {
    std::fprintf(stderr, "cache-fill query failed\n");
    return 1;
  }
  Table delta = pctagg::GenerateSales(rows / 100 + 1, /*seed=*/7);
  QueryOptions merge;
  merge.append_policy = pctagg::AppendPolicy::kMerge;
  Result<pctagg::AppendOutcome> appended =
      cached_db.AppendRows("sales", delta, merge);
  if (!appended.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 appended.status().ToString().c_str());
    return 1;
  }
  pctagg::obs::QueryTrace trace;
  QueryOptions traced;
  traced.trace = &trace;
  pctagg::Stopwatch cached_timer;
  Result<Table> after = cached_db.Query(kCubeSql, traced);
  double cached_ms = cached_timer.ElapsedMillis();
  if (!after.ok()) {
    std::fprintf(stderr, "post-append query failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  size_t levels = 0, hits = 0;
  CountLevelNodes(trace, &levels, &hits);
  std::fprintf(stderr,
               "[cache] post-append: %zu/%zu levels from cache "
               "(%zu merged), %.2f ms\n",
               hits, levels, appended.value().summaries_merged, cached_ms);

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"lattice\",\n"
      "  \"rows\": %zu,\n"
      "  \"num_cores\": %zu,\n"
      "  \"repetitions\": %zu,\n"
      "  \"aggregate\": {\n"
      "    \"result_rows\": %zu,\n"
      "    \"seed_reference_ms\": %.3f,\n"
      "    \"dop1_speedup\": %.3f,\n"
      "    \"dop1_regression_pct\": %.2f,\n"
      "    \"dop\": [\n%s    ]\n"
      "  },\n"
      "  \"cache\": {\n"
      "    \"levels\": %zu,\n"
      "    \"hits_after_append\": %zu,\n"
      "    \"summaries_merged\": %zu,\n"
      "    \"cached_query_ms\": %.3f\n"
      "  }\n"
      "}\n",
      rows, num_cores, reps, seed_rows, seed_ms, dop1_speedup,
      dop1_regression_pct, agg_json.c_str(), levels, hits,
      appended.value().summaries_merged,
      cached_ms);

  std::fputs(json.c_str(), stdout);
  FILE* f = std::fopen("BENCH_lattice.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote BENCH_lattice.json\n");
  }

  if (hits != levels) {
    std::fprintf(stderr,
                 "FAIL: only %zu of %zu lattice levels were answered from "
                 "the cache after APPEND\n",
                 hits, levels);
    return 1;
  }
  if (dop1_speedup < 2.0) {
    // At smoke sizes the fixed per-level costs (assembly, pivot) dominate
    // and the shared scan has little to amortize, so the 2x floor only
    // holds once the scan itself is the bottleneck: enforce at >=200k rows.
    bool hard = rows >= 200000;
    std::fprintf(stderr,
                 "%s: shared-scan DOP=1 speedup %.2fx is below the 2x floor "
                 "(single-level %.2f ms, cube %.2f ms)\n",
                 hard ? "FAIL" : "warning (smoke-size run, not enforced)",
                 dop1_speedup, seed_ms, shared_dop1_ms);
    if (hard) return 1;
  }
  return 0;
}
