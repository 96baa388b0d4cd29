// bench_mqo — measures multi-query shared-scan batching (core/mqo_plan.h +
// server/mqo_gate.h): 8 concurrent overlapping Vpct/Hpct/aggregate queries
// over one transactionLine fact, batched (one fused union scan + per-query
// rollups) against unbatched (8 independent fused scans). Emits
// BENCH_mqo.json (also echoed to stdout).
//
// Two measurements per DOP:
//   * solo_total_ms — the 8 queries executed one after another with mqo off:
//     the work a server does for the burst without batching. Sequential on
//     purpose, so the number is host-core-count independent.
//   * ms — the same 8 queries planned as one batch (PlanMqoBatch): one
//     shared read at the union finest level (PctDatabase::Partials), then
//     each member as an ordinary query with the batch attached
//     (PctDatabase::QueryPrepared), which rolls the union table down to its
//     own level and assembles, one after another.
// "speedup_vs_seed" is solo_total_ms / ms at the same DOP on the same host,
// so the ratio transfers across CI hardware. The DOP=1 row is the guard: the
// batch must stay >= 2x the aggregate throughput of solo execution (enforced
// at full size; smoke sizes only warn). Every batched result is compared
// byte-for-byte against its solo CSV at every DOP — any mismatch fails, any
// size.
//
// Also measured, each as kPairs alternating pairs of rounds (the order
// within a pair alternates too) so host noise hits both sides alike:
//   * e2e — the burst through the real QueryExecutor gate, 8 caller threads
//     at once, batched (SET mqo on) vs unbatched (SET mqo off): aggregate
//     throughput, p99 per-query latency, and the median and IQR of the
//     per-pair throughput gain. Reported, not guarded (on a 1-core CI host
//     the unbatched burst time-slices one core).
//   * mqo_off_overhead_pct — the executor's read path with SET mqo off vs
//     calling the database directly: the median of the per-pair differences
//     (<= 3% enforced at full size), with their IQR beside it.
//
// The summary cache stays disabled throughout so the solo baseline measures
// real scans, not cache hits.
//
// Flags / environment:
//   --smoke                 tiny rows (CI smoke)
//   PCTAGG_MQO_BENCH_ROWS   transactionLine rows (default 1000000)
//   PCTAGG_MQO_BENCH_REPS   best-of repetitions of the per-DOP timings
//                           (default 3)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/database.h"
#include "core/mqo_plan.h"
#include "engine/csv.h"
#include "server/executor.h"
#include "workload/generators.h"

namespace {

using pctagg::AnalyzedQuery;
using pctagg::ExecutorConfig;
using pctagg::FormatCsv;
using pctagg::MqoBatchPlan;
using pctagg::MqoMode;
using pctagg::PctDatabase;
using pctagg::QueryExecutor;
using pctagg::QueryOptions;
using pctagg::Result;
using pctagg::Status;
using pctagg::StrFormat;
using pctagg::Table;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

constexpr size_t kDops[] = {1, 2, 4, 8};

// The burst: 8 overlapping queries sharing the itemQty measure across four
// dimensions — shared-subexpression structure of a dashboard refresh. All
// measures are INT64 so batched results are bit-identical to solo execution;
// every ORDER BY is pinned so CSV comparison is exact.
const char* const kSqls[] = {
    "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct FROM f "
    "GROUP BY dayOfWeekNo, stateId ORDER BY dayOfWeekNo, stateId",
    "SELECT monthNo, stateId, Vpct(itemQty BY monthNo) AS pct FROM f "
    "GROUP BY monthNo, stateId ORDER BY monthNo, stateId",
    "SELECT stateId, Hpct(itemQty BY dayOfWeekNo) FROM f "
    "GROUP BY stateId ORDER BY stateId",
    "SELECT regionId, Hpct(itemQty BY monthNo) FROM f "
    "GROUP BY regionId ORDER BY regionId",
    "SELECT stateId, sum(itemQty) AS s, count(*) AS n FROM f "
    "GROUP BY stateId ORDER BY stateId",
    "SELECT dayOfWeekNo, sum(itemQty) AS s, avg(itemQty) AS a FROM f "
    "GROUP BY dayOfWeekNo ORDER BY dayOfWeekNo",
    "SELECT monthNo, dayOfWeekNo, sum(itemQty) AS s, min(itemQty) AS mn, "
    "max(itemQty) AS mx FROM f GROUP BY monthNo, dayOfWeekNo "
    "ORDER BY monthNo, dayOfWeekNo",
    "SELECT sum(itemQty) AS total, count(*) AS n FROM f",
};
constexpr size_t kQueries = sizeof(kSqls) / sizeof(kSqls[0]);

// Alternating pairs for the e2e and mqo-off measurements.
constexpr size_t kPairs = 11;

template <typename Fn>
double BestOf(size_t reps, Fn&& fn) {
  double best = fn();
  for (size_t i = 1; i < reps; ++i) {
    double ms = fn();
    if (ms < best) best = ms;
  }
  return best;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::abort();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(samples.size()));
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

// Runs `a` and `b` kPairs times each, alternating which goes first, and
// returns the per-pair percentage differences 100 * (b - a) / a.
template <typename A, typename B>
std::vector<double> PairedPctDiffs(A&& a, B&& b) {
  std::vector<double> diffs;
  for (size_t i = 0; i < kPairs; ++i) {
    double ta = 0, tb = 0;
    if (i % 2 == 0) {
      ta = a();
      tb = b();
    } else {
      tb = b();
      ta = a();
    }
    diffs.push_back((tb - ta) / ta * 100.0);
  }
  return diffs;
}

double Iqr(const std::vector<double>& samples) {
  return Percentile(samples, 0.75) - Percentile(samples, 0.25);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  size_t rows = EnvSize("PCTAGG_MQO_BENCH_ROWS", smoke ? 20000 : 1000000);
  size_t reps = EnvSize("PCTAGG_MQO_BENCH_REPS", smoke ? 1 : 3);
  size_t num_cores = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[setup] generating transactionLine n=%zu (cores=%zu)\n",
               rows, num_cores);
  PctDatabase db;  // summary cache disabled: solo baseline measures scans
  if (!db.CreateTable("f", pctagg::GenerateTransactionLine(rows)).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    return 1;
  }

  // Analyze once; the batch plan is reused at every DOP.
  std::vector<AnalyzedQuery> analyzed;
  for (size_t i = 0; i < kQueries; ++i) {
    Result<AnalyzedQuery> q = db.PrepareQuery(kSqls[i]);
    if (!q.ok()) Die(kSqls[i], q.status());
    analyzed.push_back(std::move(*q));
  }
  std::vector<const AnalyzedQuery*> queries;
  for (const AnalyzedQuery& q : analyzed) queries.push_back(&q);
  Result<MqoBatchPlan> plan = pctagg::PlanMqoBatch(queries);
  if (!plan.ok()) Die("batch plan failed", plan.status());
  std::fprintf(stderr,
               "[plan] %zu queries -> one scan: %zu union group cols, %zu "
               "partials deduped from %zu\n",
               kQueries, plan->scan_cols.size(), plan->scan_partials.size(),
               plan->partials_requested);
  pctagg::MqoBatchScan batch;
  batch.plan = std::move(*plan);
  const MqoBatchPlan& bp = batch.plan;

  // --- Batched vs solo per DOP, with the byte-identity guard at every DOP.
  bool identical = true;
  std::string agg_json;
  double solo_dop1_ms = 0, batch_dop1_ms = 0;
  size_t result_rows = 0;
  for (size_t dop : kDops) {
    QueryOptions solo_opts;
    solo_opts.degree_of_parallelism = dop;
    solo_opts.mqo = MqoMode::kOff;
    std::vector<std::string> solo_csv(kQueries);
    double solo_total_ms = BestOf(reps, [&] {
      pctagg::Stopwatch timer;
      for (size_t i = 0; i < kQueries; ++i) {
        Result<Table> r = db.Query(kSqls[i], solo_opts);
        if (!r.ok()) Die(kSqls[i], r.status());
        solo_csv[i] = FormatCsv(*r);
      }
      return timer.ElapsedMillis();
    });

    std::vector<std::string> batch_csv(kQueries);
    QueryOptions batch_opts;
    batch_opts.degree_of_parallelism = dop;
    double batch_ms = BestOf(reps, [&] {
      pctagg::Stopwatch timer;
      Result<std::shared_ptr<const Table>> partials =
          db.Partials(bp.table, bp.where, bp.scan_cols, bp.scan_partials,
                      /*use_cache=*/false, nullptr, dop);
      if (!partials.ok()) Die("batch scan failed", partials.status());
      batch.partials = std::move(*partials);
      for (size_t i = 0; i < kQueries; ++i) {
        Result<Table> r =
            db.QueryPrepared(analyzed[i], kSqls[i], batch_opts, &batch);
        if (!r.ok()) Die(kSqls[i], r.status());
        batch_csv[i] = FormatCsv(*r);
        if (i == 0) result_rows = r->num_rows();
      }
      return timer.ElapsedMillis();
    });
    for (size_t i = 0; i < kQueries; ++i) {
      if (batch_csv[i] != solo_csv[i]) {
        std::fprintf(stderr, "MISMATCH at dop=%zu: %s\n", dop, kSqls[i]);
        identical = false;
      }
    }
    if (dop == 1) {
      solo_dop1_ms = solo_total_ms;
      batch_dop1_ms = batch_ms;
    }
    std::fprintf(stderr,
                 "[model] dop=%zu: batch %.2f ms vs solo %.2f ms for %zu "
                 "queries, %.2fx\n",
                 dop, batch_ms, solo_total_ms, kQueries,
                 solo_total_ms / batch_ms);
    agg_json += StrFormat(
        "      {\"dop\": %zu, \"ms\": %.3f, \"speedup_vs_seed\": %.3f, "
        "\"solo_total_ms\": %.3f}%s\n",
        dop, batch_ms, solo_total_ms / batch_ms, solo_total_ms,
        dop == 8 ? "" : ",");
  }
  double dop1_speedup = solo_dop1_ms / batch_dop1_ms;
  double dop1_regression_pct =
      (batch_dop1_ms - solo_dop1_ms) / solo_dop1_ms * 100.0;

  // --- e2e through the executor gate: 8 caller threads at once, batched
  // (gate collects the burst into one batch) vs unbatched (mqo off), in
  // alternating rounds.
  auto make_e2e_executor = [&] {
    ExecutorConfig config;
    config.worker_threads = kQueries;
    config.mqo_window_ms = 250;  // max_batch closes the batch early
    config.mqo_max_batch = kQueries;
    return std::make_unique<QueryExecutor>(&db, config);
  };
  std::unique_ptr<QueryExecutor> solo_executor = make_e2e_executor();
  std::unique_ptr<QueryExecutor> batch_executor = make_e2e_executor();
  std::vector<double> solo_lat, batch_lat;
  double e2e_solo_ms = 0, e2e_batch_ms = 0;
  auto e2e_round = [&](QueryExecutor* executor, MqoMode mode,
                       std::vector<double>* latencies, double* total_ms) {
    std::vector<std::thread> threads;
    std::vector<double> lat(kQueries);
    pctagg::Stopwatch round;
    for (size_t i = 0; i < kQueries; ++i) {
      threads.emplace_back([&, i] {
        QueryOptions opts;
        opts.degree_of_parallelism = 1;
        opts.mqo = mode;
        pctagg::Stopwatch timer;
        Result<Table> r = executor->ExecuteStatement(kSqls[i], opts, 0);
        lat[i] = timer.ElapsedMillis();
        if (!r.ok()) Die(kSqls[i], r.status());
      });
    }
    for (std::thread& t : threads) t.join();
    const double ms = round.ElapsedMillis();
    *total_ms += ms;
    latencies->insert(latencies->end(), lat.begin(), lat.end());
    return kQueries / (ms / 1e3);  // this round's throughput, q/s
  };
  // Per pair: 100 * (batched q/s - unbatched q/s) / unbatched q/s.
  const std::vector<double> e2e_gain = PairedPctDiffs(
      [&] {
        return e2e_round(solo_executor.get(), MqoMode::kOff, &solo_lat,
                         &e2e_solo_ms);
      },
      [&] {
        return e2e_round(batch_executor.get(), MqoMode::kOn, &batch_lat,
                         &e2e_batch_ms);
      });
  solo_executor.reset();
  batch_executor.reset();
  const double total_queries = static_cast<double>(kQueries * kPairs);
  double solo_qps = total_queries / (e2e_solo_ms / 1e3);
  double batch_qps = total_queries / (e2e_batch_ms / 1e3);
  double solo_p99 = Percentile(solo_lat, 0.99);
  double batch_p99 = Percentile(batch_lat, 0.99);
  const double e2e_gain_pct = Percentile(e2e_gain, 0.5);
  const double e2e_gain_iqr = Iqr(e2e_gain);
  std::fprintf(stderr,
               "[e2e] unbatched %.1f q/s p99 %.2f ms; batched %.1f q/s p99 "
               "%.2f ms; paired gain median %+.1f%% (IQR %.1f) over %zu "
               "pairs\n",
               solo_qps, solo_p99, batch_qps, batch_p99, e2e_gain_pct,
               e2e_gain_iqr, kPairs);

  // --- SET mqo off must cost nothing: executor read path vs direct calls,
  // in alternating rounds.
  QueryOptions off_opts;
  off_opts.degree_of_parallelism = 1;
  off_opts.mqo = MqoMode::kOff;
  QueryExecutor off_executor(&db, ExecutorConfig{2, 64});
  std::vector<double> direct_ms, via_executor_ms;
  const std::vector<double> off_diffs = PairedPctDiffs(
      [&] {
        pctagg::Stopwatch timer;
        for (size_t i = 0; i < kQueries; ++i) {
          Result<Table> r = db.Query(kSqls[i], off_opts);
          if (!r.ok()) Die(kSqls[i], r.status());
        }
        direct_ms.push_back(timer.ElapsedMillis());
        return direct_ms.back();
      },
      [&] {
        pctagg::Stopwatch timer;
        for (size_t i = 0; i < kQueries; ++i) {
          Result<Table> r =
              off_executor.ExecuteStatement(kSqls[i], off_opts, 0);
          if (!r.ok()) Die(kSqls[i], r.status());
        }
        via_executor_ms.push_back(timer.ElapsedMillis());
        return via_executor_ms.back();
      });
  const double off_overhead_pct = Percentile(off_diffs, 0.5);
  const double off_overhead_iqr = Iqr(off_diffs);
  std::fprintf(stderr,
               "[off] direct %.2f ms, via executor %.2f ms (medians); paired "
               "difference median %+.2f%% (IQR %.2f) over %zu pairs\n",
               Percentile(direct_ms, 0.5), Percentile(via_executor_ms, 0.5),
               off_overhead_pct, off_overhead_iqr, kPairs);

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"mqo\",\n"
      "  \"rows\": %zu,\n"
      "  \"num_cores\": %zu,\n"
      "  \"repetitions\": %zu,\n"
      "  \"queries\": %zu,\n"
      "  \"scan_partials\": %zu,\n"
      "  \"partials_requested\": %zu,\n"
      "  \"aggregate\": {\n"
      "    \"result_rows\": %zu,\n"
      "    \"seed_reference_ms\": %.3f,\n"
      "    \"dop1_speedup\": %.3f,\n"
      "    \"dop1_regression_pct\": %.2f,\n"
      "    \"dop\": [\n%s    ]\n"
      "  },\n"
      "  \"pairs\": %zu,\n"
      "  \"e2e\": {\n"
      "    \"unbatched\": {\"throughput_qps\": %.1f, \"p99_ms\": %.3f},\n"
      "    \"batched\": {\"throughput_qps\": %.1f, \"p99_ms\": %.3f},\n"
      "    \"paired_gain_pct\": %.2f,\n"
      "    \"paired_gain_iqr_pct\": %.2f\n"
      "  },\n"
      "  \"mqo_off_overhead_pct\": %.2f,\n"
      "  \"mqo_off_overhead_iqr_pct\": %.2f,\n"
      "  \"bit_identical\": %s\n"
      "}\n",
      rows, num_cores, reps, kQueries, bp.scan_partials.size(),
      bp.partials_requested, result_rows, solo_dop1_ms, dop1_speedup,
      dop1_regression_pct, agg_json.c_str(), kPairs, solo_qps, solo_p99,
      batch_qps, batch_p99, e2e_gain_pct, e2e_gain_iqr, off_overhead_pct,
      off_overhead_iqr, identical ? "true" : "false");

  std::fputs(json.c_str(), stdout);
  FILE* f = std::fopen("BENCH_mqo.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote BENCH_mqo.json\n");
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: a batched result differs from its solo execution on "
                 "an INT64 measure\n");
    return 1;
  }
  // Below ~200k rows the per-query assembly tail dominates the shrunken
  // shared scan, so the throughput floor and the off-overhead bound are only
  // meaningful at full size.
  const bool hard = rows >= 200000;
  if (dop1_speedup < 2.0) {
    std::fprintf(stderr,
                 "%s: batched DOP=1 aggregate throughput %.2fx is below the "
                 "2x floor (solo %.2f ms, batched %.2f ms)\n",
                 hard ? "FAIL" : "warning (smoke-size run, not enforced)",
                 dop1_speedup, solo_dop1_ms, batch_dop1_ms);
    if (hard) return 1;
  }
  if (off_overhead_pct > 3.0) {
    std::fprintf(stderr,
                 "%s: SET mqo off costs %.2f%% (median of %zu paired rounds, "
                 "IQR %.2f) over calling the database directly (budget 3%%)\n",
                 hard ? "FAIL" : "warning (smoke-size run, not enforced)",
                 off_overhead_pct, kPairs, off_overhead_iqr);
    if (hard) return 1;
  }
  return 0;
}
