// bench_fused — measures the fused push-based percentage pipelines against
// the materialized multi-statement plans and reports per-DOP timings as JSON
// (BENCH_fused.json, also echoed to stdout).
//
// Two comparisons:
//   1. The fused scan->filter->aggregate kernel (HashAggregate with its
//      WHERE mask) versus the materialized equivalent — Filter into an
//      intermediate table, then HashAggregate over the copy — on the same
//      WHERE + GROUP BY shape at DOP 1/2/4/8. Both run the one aggregation
//      kernel, so the materialized row differs only by Filter's copy. The
//      seed reference is the materialized pair at DOP=1;
//      "speedup_vs_seed" is materialized_ms / fused_ms,
//      measured on the same host in the same process, so the ratio transfers
//      across CI hardware. The DOP=1 row doubles as the regression guard
//      (dop1_regression_pct must stay <= 5: fusing must never lose to
//      materializing serially).
//   2. End-to-end Vpct / Hpct queries at each DOP: the partial path
//      (PctDatabase::QueryPartial) vs the materialized plan the advisor
//      picks at that DOP, forced through QueryOptions.
//
// Scaling soft-check: the fused kernel at DOP=4 must not be slower than its
// own DOP=1 by more than 15% — MorselPlan::Auto clamps workers to the cores
// the process can actually use, so extra DOP must degenerate to serial
// instead of thrashing (the committed dop=4-slower-than-dop=1 row this PR
// fixes). num_cores is recorded honestly: on a single-core host the DOP>1
// rows show the clamp, not scaling.
//
// Flags / environment:
//   --smoke                  tiny rows (TSan/CI smoke)
//   PCTAGG_FUSED_BENCH_ROWS  sales rows (default 1000000)
//   PCTAGG_FUSED_BENCH_REPS  repetitions, best-of (default 3)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/advisor.h"
#include "core/database.h"
#include "engine/aggregate.h"
#include "engine/table_ops.h"
#include "workload/generators.h"

namespace {

using pctagg::AggFunc;
using pctagg::AggSpec;
using pctagg::Col;
using pctagg::ExprPtr;
using pctagg::Lit;
using pctagg::PctDatabase;
using pctagg::QueryOptions;
using pctagg::Result;
using pctagg::StrFormat;
using pctagg::Table;
using pctagg::Value;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

constexpr size_t kDops[] = {1, 2, 4, 8};

// The WHERE + GROUP BY shape both sides run: a ~75%-selective predicate
// (month <= 9) so the materialized path really pays for its intermediate
// copy, grouped at the paper's Fk granularity.
ExprPtr BenchWhere() { return pctagg::Le(Col("monthNo"), Lit(Value::Int64(9))); }

std::vector<AggSpec> BenchAggs() {
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col("salesAmt"), "s"});
  return aggs;
}

// What the fused kernel replaces: Filter materializes the surviving rows
// into a new table (the planner's Fw temp), then HashAggregate scans the
// copy. Both operators are the engine's current morsel-parallel versions, so
// the delta measured here is fusion itself, not an old scalar loop.
double MaterializedAggregateMs(const Table& t, size_t dop, size_t* out_groups) {
  pctagg::Stopwatch timer;
  Result<Table> fw = pctagg::Filter(t, BenchWhere());
  if (!fw.ok()) {
    std::fprintf(stderr, "Filter failed: %s\n", fw.status().ToString().c_str());
    std::abort();
  }
  Result<Table> r =
      pctagg::HashAggregate(*fw, {"dweek", "monthNo"}, BenchAggs(), dop);
  double ms = timer.ElapsedMillis();
  if (!r.ok()) {
    std::fprintf(stderr, "HashAggregate failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  *out_groups = r.value().num_rows();
  return ms;
}

double FusedKernelMs(const Table& t, size_t dop, size_t* out_groups) {
  pctagg::Stopwatch timer;
  Result<Table> r = pctagg::HashAggregate(t, {"dweek", "monthNo"}, BenchAggs(),
                                          dop, BenchWhere());
  double ms = timer.ElapsedMillis();
  if (!r.ok()) {
    std::fprintf(stderr, "fused HashAggregate failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  *out_groups = r.value().num_rows();
  return ms;
}

struct BenchQuery {
  const char* name;
  const char* sql;
  bool partial;  // the partial path; else the advisor's materialized pick
};

constexpr BenchQuery kQueries[] = {
    {"vpct_fused",
     "SELECT monthNo, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales "
     "GROUP BY monthNo, dweek",
     true},
    {"vpct_materialized",
     "SELECT monthNo, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales "
     "GROUP BY monthNo, dweek",
     false},
    {"hpct_fused",
     "SELECT store, Hpct(salesAmt BY dweek) FROM sales GROUP BY store", true},
    {"hpct_materialized",
     "SELECT store, Hpct(salesAmt BY dweek) FROM sales GROUP BY store", false},
};

// Forces the materialized plan the advisor picks for `sql` at `dop`: the
// plan the partial path is priced against.
void ForceAdvisedPlan(const PctDatabase& db, const char* sql, size_t dop,
                      QueryOptions* options) {
  Result<pctagg::AnalyzedQuery> query = db.PrepareQuery(sql);
  Result<pctagg::PlannerStats> stats =
      query.ok() ? db.PlannerStatistics(query->table_name)
                 : Result<pctagg::PlannerStats>(query.status());
  if (!stats.ok()) {
    std::fprintf(stderr, "benchmark query failed to plan: %s\n%s\n",
                 stats.status().ToString().c_str(), sql);
    std::abort();
  }
  pctagg::StrategyAdvisor advisor;
  if (query->query_class == pctagg::QueryClass::kVpct) {
    options->vpct_strategy = advisor.AdviseVpct(*stats, *query, dop);
  } else {
    options->horizontal_strategy =
        advisor.AdviseHorizontal(*stats, *query, dop);
  }
}

double QueryMs(const PctDatabase& db, const BenchQuery& q, size_t dop) {
  QueryOptions options;
  options.degree_of_parallelism = dop;
  if (!q.partial) ForceAdvisedPlan(db, q.sql, dop, &options);
  pctagg::Stopwatch timer;
  Result<Table> r = q.partial ? db.QueryPartial(q.sql, options)
                              : db.Query(q.sql, options);
  double ms = timer.ElapsedMillis();
  if (!r.ok() || r.value().num_rows() == 0) {
    std::fprintf(stderr, "benchmark query failed: %s\n%s\n",
                 r.status().ToString().c_str(), q.sql);
    std::abort();
  }
  return ms;
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
  size_t rows = EnvSize("PCTAGG_FUSED_BENCH_ROWS", smoke ? 20000 : 1000000);
  size_t reps = EnvSize("PCTAGG_FUSED_BENCH_REPS", smoke ? 1 : 3);
  size_t num_cores = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[setup] generating sales n=%zu (cores=%zu)...\n", rows,
               num_cores);
  PctDatabase db;
  if (!db.CreateTable("sales", pctagg::GenerateSales(rows)).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    return 1;
  }
  const Table& sales = *db.catalog().GetTable("sales").value();

  // --- Kernel comparison: materialized Filter+HashAggregate (dop=1) is the
  // seed reference; the masked kernel runs at each DOP.
  size_t seed_groups = 0;
  double seed_ms = BestOf(
      reps, [&] { return MaterializedAggregateMs(sales, 1, &seed_groups); });
  std::fprintf(stderr, "[agg] materialized dop=1: %.2f ms (%zu groups)\n",
               seed_ms, seed_groups);

  std::string agg_json;
  double dop1_ms = 0;
  double dop4_ms = 0;
  for (size_t dop : kDops) {
    size_t groups = 0;
    double ms =
        BestOf(reps, [&] { return FusedKernelMs(sales, dop, &groups); });
    if (groups != seed_groups) {
      std::fprintf(stderr, "group count mismatch: %zu vs %zu\n", groups,
                   seed_groups);
      return 1;
    }
    if (dop == 1) dop1_ms = ms;
    if (dop == 4) dop4_ms = ms;
    std::fprintf(stderr, "[agg] fused dop=%zu: %.2f ms (%.2fx vs materialized)\n",
                 dop, ms, seed_ms / ms);
    agg_json += StrFormat(
        "      {\"dop\": %zu, \"ms\": %.3f, \"speedup_vs_seed\": %.3f}%s\n",
        dop, ms, seed_ms / ms, dop == 8 ? "" : ",");
  }
  // Regression guard: fusing must not lose to materializing at DOP=1.
  double dop1_regression_pct = (dop1_ms - seed_ms) / seed_ms * 100.0;

  // --- End-to-end queries per DOP, partial path vs the advised plan.
  std::string query_json;
  for (size_t qi = 0; qi < sizeof(kQueries) / sizeof(kQueries[0]); ++qi) {
    const BenchQuery& q = kQueries[qi];
    query_json += StrFormat("    {\"name\": \"%s\", \"dop_ms\": [", q.name);
    for (size_t di = 0; di < 4; ++di) {
      size_t dop = kDops[di];
      double ms = BestOf(reps, [&] { return QueryMs(db, q, dop); });
      std::fprintf(stderr, "[query] %s dop=%zu: %.2f ms\n", q.name, dop, ms);
      query_json += StrFormat("%.3f%s", ms, di == 3 ? "" : ", ");
    }
    query_json += StrFormat(
        "]}%s\n", qi + 1 == sizeof(kQueries) / sizeof(kQueries[0]) ? "" : ",");
  }

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"fused_pipeline\",\n"
      "  \"rows\": %zu,\n"
      "  \"num_cores\": %zu,\n"
      "  \"repetitions\": %zu,\n"
      "  \"aggregate\": {\n"
      "    \"groups\": %zu,\n"
      "    \"seed_reference_ms\": %.3f,\n"
      "    \"dop1_regression_pct\": %.2f,\n"
      "    \"dop\": [\n%s    ]\n"
      "  },\n"
      "  \"queries\": [\n%s  ]\n"
      "}\n",
      rows, num_cores, reps, seed_groups, seed_ms, dop1_regression_pct,
      agg_json.c_str(), query_json.c_str());

  std::fputs(json.c_str(), stdout);
  FILE* f = std::fopen("BENCH_fused.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote BENCH_fused.json\n");
  }
  if (dop1_regression_pct > 5.0) {
    std::fprintf(stderr,
                 "FAIL: fused DOP=1 is %.2f%% slower than the materialized "
                 "pair (budget: 5%%)\n",
                 dop1_regression_pct);
    return 1;
  }
  if (dop4_ms > dop1_ms * 1.15) {
    // Sub-5ms timings on shared CI hosts are scheduler jitter, not signal:
    // at smoke sizes this is a warning, at full size a failure.
    bool hard = dop1_ms >= 5.0;
    std::fprintf(stderr,
                 "%s: fused DOP=4 (%.2f ms) is more than 15%% slower than "
                 "DOP=1 (%.2f ms) — the adaptive morsel clamp is not holding\n",
                 hard ? "FAIL" : "warning (timings below 5 ms, not enforced)",
                 dop4_ms, dop1_ms);
    if (hard) return 1;
  }
  return 0;
}
