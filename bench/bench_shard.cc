// bench_shard — measures distributed scatter/gather percentage execution
// (docs/SHARDING.md) against the single-node fused scan and reports per-DOP
// timings as JSON (BENCH_shard.json, also echoed to stdout).
//
// Topology: 4 in-process worker servers on loopback ephemeral ports, one
// coordinator database sharding the transactionLine fact on cityId. The
// measure is INT64 itemQty so distributed results are bit-identical to the
// single-node answer (enforced below, any size).
//
// Two timings per DOP:
//   * modeled-concurrent — per-shard partial scans measured one at a time
//     (each shard as if alone on its own machine), plus the serialized
//     coordinator tail: response serde, gather merge, percentage assembly.
//     This is the number a real N-machine deployment sees and it is
//     host-core-count independent, so it is the CI guard
//     (docs/EXPERIMENTS.md).
//   * e2e — the same query through the real coordinator/server wire path
//     with all four shard scans in flight at once. On a many-core host this
//     approaches the model; on a 1-core CI runner the four workers time-slice
//     one core and e2e degenerates to the sum of the scans, which is why it
//     is reported but not guarded.
//
// The seed reference is the single-node fused scan at DOP=4 (the best plan
// the engine had before sharding). "speedup_vs_seed" is seed_ms /
// modeled_ms on the same host in the same process, so the ratio transfers
// across CI hardware. The DOP=1 row is the guard: 4-shard distributed
// execution must stay >= 2x faster than the single-node scan (enforced at
// full size; smoke sizes only warn).
//
// Flags / environment:
//   --smoke                  tiny rows (CI smoke)
//   PCTAGG_SHARD_BENCH_ROWS  transactionLine rows (default 4000000)
//   PCTAGG_SHARD_BENCH_REPS  repetitions, best-of (default 3)

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
#include "core/partial_plan.h"
#include "dist/coordinator.h"
#include "engine/csv.h"
#include "engine/parallel.h"
#include "engine/table_ops.h"
#include "server/server.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "storage/serde.h"
#include "workload/generators.h"

namespace {

using pctagg::AnalyzedQuery;
using pctagg::FormatCsv;
using pctagg::PctDatabase;
using pctagg::PctServer;
using pctagg::QueryOptions;
using pctagg::Result;
using pctagg::ServerConfig;
using pctagg::Status;
using pctagg::StrFormat;
using pctagg::Table;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

constexpr size_t kShards = 4;
constexpr size_t kSeedDop = 4;
constexpr size_t kDops[] = {1, 2, 4, 8};

// Vpct over the INT64 quantity measure: shard partials are integer sums, so
// the merged-and-divided percentages match single-node bit for bit. The
// ORDER BY pins row order to the single-node answer's (the gather emits
// groups in shard order).
constexpr const char* kSql =
    "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct, "
    "sum(itemQty) AS s FROM f GROUP BY dayOfWeekNo, stateId "
    "ORDER BY dayOfWeekNo, stateId";

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

double QueryMs(const PctDatabase& db, const std::string& sql, size_t dop,
               std::string* csv) {
  QueryOptions options;
  options.degree_of_parallelism = dop;
  pctagg::Stopwatch timer;
  Result<Table> r = db.Query(sql, options);
  double ms = timer.ElapsedMillis();
  if (!r.ok()) Die("query failed", r.status());
  if (csv != nullptr) *csv = FormatCsv(*r);
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  size_t rows = EnvSize("PCTAGG_SHARD_BENCH_ROWS", smoke ? 20000 : 4000000);
  size_t reps = EnvSize("PCTAGG_SHARD_BENCH_REPS", smoke ? 1 : 3);
  size_t num_cores = std::thread::hardware_concurrency();

  std::fprintf(stderr, "[setup] generating transactionLine n=%zu (cores=%zu)\n",
               rows, num_cores);
  Table fact = pctagg::GenerateTransactionLine(rows);

  // --- Seed reference: the single-node fused scan at DOP=4, the best plan
  // the engine had before sharding existed.
  PctDatabase single;
  if (!single.CreateTable("f", fact).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    return 1;
  }
  std::string reference_csv;
  double seed_ms =
      BestOf(reps, [&] { return QueryMs(single, kSql, kSeedDop, &reference_csv); });
  std::fprintf(stderr, "[seed] single-node dop=%zu: %.2f ms\n", kSeedDop,
               seed_ms);

  // --- Real topology: 4 worker servers on loopback, coordinator shards on
  // cityId(20) and the full table crosses the wire via SHARDDATA.
  std::vector<std::unique_ptr<PctDatabase>> worker_dbs;
  std::vector<std::unique_ptr<PctServer>> workers;
  std::vector<pctagg::dist::WorkerEndpoint> endpoints;
  for (size_t i = 0; i < kShards; ++i) {
    worker_dbs.push_back(std::make_unique<PctDatabase>());
    ServerConfig wc;
    wc.port = 0;
    wc.worker_threads = 2;
    workers.push_back(std::make_unique<PctServer>(worker_dbs.back().get(), wc));
    if (!workers.back()->Start().ok()) {
      std::fprintf(stderr, "worker %zu failed to start\n", i);
      return 1;
    }
    endpoints.push_back({"127.0.0.1", workers.back()->port()});
  }
  PctDatabase coord_db;
  if (!coord_db.CreateTable("f", std::move(fact)).ok()) {
    std::fprintf(stderr, "coordinator table setup failed\n");
    return 1;
  }
  pctagg::dist::Coordinator coordinator(&coord_db, endpoints);
  pctagg::Stopwatch shard_timer;
  if (Status st = coordinator.ShardTable("f", "cityId"); !st.ok()) {
    Die("SHARD failed", st);
  }
  std::fprintf(stderr, "[shard] scattered %zu rows over %zu workers: %.2f ms\n",
               rows, kShards, shard_timer.ElapsedMillis());

  // e2e through the coordinator database (all shards in flight at once).
  auto e2e_once = [&](std::string* csv) {
    QueryOptions options;
    options.degree_of_parallelism = kSeedDop;
    pctagg::Stopwatch timer;
    Result<Table> r = coord_db.Query(kSql, options);
    double ms = timer.ElapsedMillis();
    if (!r.ok()) Die("distributed query failed", r.status());
    if (csv != nullptr) *csv = FormatCsv(*r);
    return ms;
  };
  std::string e2e_csv;
  double e2e_ms = BestOf(reps, [&] { return e2e_once(&e2e_csv); });
  bool e2e_identical = e2e_csv == reference_csv;
  std::fprintf(stderr, "[e2e] distributed dop=%zu: %.2f ms (%s)\n", kSeedDop,
               e2e_ms, e2e_identical ? "bit-identical" : "MISMATCH");

  // --- Modeled-concurrent per DOP: the same partial SQL the coordinator
  // scatters, run on each worker's database one at a time (no core
  // contention), plus the serialized coordinator tail measured directly.
  Result<pctagg::SelectStatement> stmt = pctagg::ParseSelect(kSql);
  if (!stmt.ok()) Die("parse failed", stmt.status());
  auto stub = coord_db.catalog().GetTable("f");
  if (!stub.ok()) Die("stub lookup failed", stub.status());
  Result<AnalyzedQuery> query = pctagg::Analyze(*stmt, (*stub)->schema());
  if (!query.ok()) Die("analyze failed", query.status());
  Result<pctagg::PartialPlan> plan = pctagg::BuildPartialPlan(*query);
  if (!plan.ok()) Die("partial plan failed", plan.status());

  std::string agg_json;
  double modeled_dop1_ms = 0;
  size_t result_rows = 0;
  uint64_t bytes_moved = 0;
  bool identical = e2e_identical;
  for (size_t dop : kDops) {
    double max_scan_ms = 0, serde_ms = 0;
    std::vector<Table> partials;
    uint64_t dop_bytes = 0;
    for (size_t i = 0; i < kShards; ++i) {
      QueryOptions options;
      options.degree_of_parallelism = dop;
      double scan_ms = BestOf(reps, [&] {
        pctagg::Stopwatch timer;
        Result<Table> partial = worker_dbs[i]->Query(plan->partial_sql, options);
        double ms = timer.ElapsedMillis();
        if (!partial.ok()) Die("partial scan failed", partial.status());
        if (partials.size() <= i) partials.push_back(std::move(*partial));
        return ms;
      });
      if (scan_ms > max_scan_ms) max_scan_ms = scan_ms;
      // Response serde both ways, as the wire path pays it: encode on the
      // worker, decode on the coordinator. Shards ship concurrently, so the
      // model charges the slowest one.
      pctagg::Stopwatch serde_timer;
      std::string bytes;
      pctagg::storage::EncodeTable(partials[i], &bytes);
      pctagg::storage::ByteReader reader(bytes);
      Result<Table> decoded = pctagg::storage::DecodeTable(&reader);
      if (!decoded.ok()) Die("serde failed", decoded.status());
      double one_serde = serde_timer.ElapsedMillis();
      if (one_serde > serde_ms) serde_ms = one_serde;
      dop_bytes += bytes.size();
      partials[i] = std::move(*decoded);
    }
    // The coordinator's gather: the replies in shard order, rolled up once.
    pctagg::Stopwatch merge_timer;
    Table all = std::move(partials[0]);
    for (size_t i = 1; i < kShards; ++i) {
      pctagg::Status st = pctagg::InsertInto(&all, partials[i]);
      if (!st.ok()) Die("merge failed", st);
    }
    std::vector<std::string> names;
    for (const pctagg::AggSpec& p : plan->partials) {
      names.push_back(p.output_name);
    }
    Result<Table> rolled =
        pctagg::RollUp(plan->partials, all, plan->finest_cols, names, dop);
    if (!rolled.ok()) Die("merge failed", rolled.status());
    Table merged = std::move(*rolled);
    double merge_ms = merge_timer.ElapsedMillis();
    // The plan's steps after its source, run on the merged table.
    pctagg::PartialSource gathered;
    gathered.finest = std::make_shared<const Table>(std::move(merged));
    pctagg::Plan assembly;
    pctagg::LowerPartialPlan(*plan, gathered, pctagg::PlannerStats(), dop,
                             &assembly);
    pctagg::Stopwatch assemble_timer;
    Table assembled;
    {
      pctagg::ScopedParallelism parallelism(dop);
      Result<Table> a = assembly.Execute(&coord_db.catalog());
      if (!a.ok()) Die("assembly failed", a.status());
      Result<Table> tail = pctagg::ApplyQueryTail(std::move(*a), *query);
      if (!tail.ok()) Die("tail failed", tail.status());
      assembled = std::move(*tail);
    }
    double assemble_ms = assemble_timer.ElapsedMillis();
    if (FormatCsv(assembled) != reference_csv) identical = false;
    result_rows = assembled.num_rows();
    bytes_moved = dop_bytes;

    double modeled_ms = max_scan_ms + serde_ms + merge_ms + assemble_ms;
    if (dop == 1) modeled_dop1_ms = modeled_ms;
    std::fprintf(stderr,
                 "[model] dop=%zu: %.2f ms (scan %.2f + serde %.2f + merge "
                 "%.2f + assemble %.2f), %.2fx vs seed\n",
                 dop, modeled_ms, max_scan_ms, serde_ms, merge_ms, assemble_ms,
                 seed_ms / modeled_ms);
    agg_json += StrFormat(
        "      {\"dop\": %zu, \"ms\": %.3f, \"speedup_vs_seed\": %.3f, "
        "\"max_shard_scan_ms\": %.3f, \"serde_ms\": %.3f, "
        "\"merge_ms\": %.3f, \"assemble_ms\": %.3f}%s\n",
        dop, modeled_ms, seed_ms / modeled_ms, max_scan_ms, serde_ms, merge_ms,
        assemble_ms, dop == 8 ? "" : ",");
  }
  double dop1_speedup = seed_ms / modeled_dop1_ms;
  double dop1_regression_pct = (modeled_dop1_ms - seed_ms) / seed_ms * 100.0;

  std::string json = StrFormat(
      "{\n"
      "  \"benchmark\": \"shard\",\n"
      "  \"rows\": %zu,\n"
      "  \"num_cores\": %zu,\n"
      "  \"repetitions\": %zu,\n"
      "  \"shards\": %zu,\n"
      "  \"aggregate\": {\n"
      "    \"result_rows\": %zu,\n"
      "    \"seed_reference_ms\": %.3f,\n"
      "    \"dop1_speedup\": %.3f,\n"
      "    \"dop1_regression_pct\": %.2f,\n"
      "    \"dop\": [\n%s    ]\n"
      "  },\n"
      "  \"e2e\": {\n"
      "    \"dop\": %zu,\n"
      "    \"ms\": %.3f,\n"
      "    \"partial_bytes_moved\": %llu,\n"
      "    \"bit_identical\": %s\n"
      "  }\n"
      "}\n",
      rows, num_cores, reps, kShards, result_rows, seed_ms, dop1_speedup,
      dop1_regression_pct, agg_json.c_str(), kSeedDop, e2e_ms,
      static_cast<unsigned long long>(bytes_moved),
      identical ? "true" : "false");

  std::fputs(json.c_str(), stdout);
  FILE* f = std::fopen("BENCH_shard.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote BENCH_shard.json\n");
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: distributed result differs from single-node on an "
                 "INT64 measure\n");
    return 1;
  }
  if (dop1_speedup < 2.0) {
    // At smoke sizes the fixed coordinator tail (serde, merge, assembly)
    // dominates the shrunken scans, so the 2x floor only holds once the
    // per-shard scan is the bottleneck: enforce at >=200k rows.
    bool hard = rows >= 200000;
    std::fprintf(stderr,
                 "%s: modeled 4-shard DOP=1 speedup %.2fx is below the 2x "
                 "floor (single-node %.2f ms, modeled %.2f ms)\n",
                 hard ? "FAIL" : "warning (smoke-size run, not enforced)",
                 dop1_speedup, seed_ms, modeled_dop1_ms);
    if (hard) return 1;
  }
  return 0;
}
