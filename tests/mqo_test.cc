// Multi-query shared-scan batching (core/mqo_plan.h + server/mqo_gate.h):
// one fused scan serves N concurrent percentage queries. The sweep tests pin
// the headline guarantee — a batched query's bytes are identical to its solo
// execution at every dop — and the gate tests pin the admission rules
// (compatibility keys, deadline escapes, mixed WHERE) and the exactly-one
// cache fill per deduplicated summary entry.

#include "core/mqo_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/database.h"
#include "dist/coordinator.h"
#include "engine/csv.h"
#include "engine/parallel.h"
#include "engine/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/executor.h"
#include "server/server.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

// Overlapping dashboard-burst queries over one fact table: shared measures at
// different grouping levels, a global aggregate (empty-() rollup path), and
// both percentage forms. Every ORDER BY is pinned so CSV comparison is exact.
const char* const kBatchSqls[] = {
    "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct FROM f "
    "GROUP BY dayOfWeekNo, stateId ORDER BY dayOfWeekNo, stateId",
    "SELECT stateId, sum(itemQty) AS s, count(*) AS n, avg(itemQty) AS a "
    "FROM f GROUP BY stateId ORDER BY stateId",
    "SELECT dayOfWeekNo, min(itemQty) AS mn, max(itemQty) AS mx FROM f "
    "GROUP BY dayOfWeekNo ORDER BY dayOfWeekNo",
    "SELECT sum(itemQty) AS total, count(*) AS n FROM f",
    "SELECT stateId, Hpct(itemQty BY dayOfWeekNo) FROM f "
    "GROUP BY stateId ORDER BY stateId",
};
constexpr size_t kNumBatchSqls = sizeof(kBatchSqls) / sizeof(kBatchSqls[0]);

std::string SoloCsv(PctDatabase* db, const std::string& sql, size_t dop) {
  QueryOptions options;
  options.degree_of_parallelism = dop;
  options.mqo = MqoMode::kOff;
  Result<Table> r = db->Query(sql, options);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? FormatCsv(*r) : std::string();
}

// An INT64 fact with NULLs in two group columns (same shape dist_test uses).
Table NullableFact(uint64_t seed, size_t n) {
  Rng rng(seed);
  Table t(Schema({{"k", DataType::kInt64},
                  {"g", DataType::kInt64},
                  {"v", DataType::kInt64}}));
  t.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Value k = rng.Uniform(10) == 0
                  ? Value::Null()
                  : Value::Int64(static_cast<int64_t>(rng.Uniform(7)));
    Value g = rng.Uniform(8) == 0
                  ? Value::Null()
                  : Value::Int64(static_cast<int64_t>(rng.Uniform(5)));
    t.AppendRow({k, g, Value::Int64(static_cast<int64_t>(rng.Uniform(100)))});
  }
  return t;
}

// Plans and scans `sqls` as one batch (no gate, no cache), runs each member
// as an ordinary query with the batch attached, and asserts each member was
// answered from the batch with bytes equal to its solo execution at the same
// dop.
void ExpectBatchBitIdentical(PctDatabase* db,
                             const std::vector<std::string>& sqls,
                             size_t dop) {
  std::vector<AnalyzedQuery> analyzed;
  analyzed.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    Result<AnalyzedQuery> q = db->PrepareQuery(sql);
    ASSERT_TRUE(q.ok()) << sql << ": " << q.status().ToString();
    analyzed.push_back(std::move(*q));
  }
  std::vector<const AnalyzedQuery*> queries;
  for (const AnalyzedQuery& q : analyzed) queries.push_back(&q);
  Result<MqoBatchPlan> plan = PlanMqoBatch(queries);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  MqoBatchScan batch;
  batch.plan = std::move(*plan);
  Result<std::shared_ptr<const Table>> partials = db->Partials(
      batch.plan.table, batch.plan.where, batch.plan.scan_cols,
      batch.plan.scan_partials, /*use_cache=*/false, nullptr, dop);
  ASSERT_TRUE(partials.ok()) << partials.status().ToString();
  batch.partials = std::move(*partials);
  for (size_t i = 0; i < sqls.size(); ++i) {
    obs::QueryTrace trace;
    QueryOptions options;
    options.degree_of_parallelism = dop;
    options.trace = &trace;
    Result<Table> r = db->QueryPrepared(analyzed[i], sqls[i], options, &batch);
    ASSERT_TRUE(r.ok()) << sqls[i] << ": " << r.status().ToString();
    EXPECT_EQ(trace.strategy, "partial from mqo batch") << sqls[i];
    EXPECT_EQ(FormatCsv(*r), SoloCsv(db, sqls[i], dop))
        << "dop=" << dop << " sql=" << sqls[i];
  }
}

// --- Planner ----------------------------------------------------------------

TEST(MqoPlanTest, CompatibilityKeyMatchesSameTableAndWhere) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(100)).ok());
  auto key = [&](const std::string& sql) {
    Result<AnalyzedQuery> q = db.PrepareQuery(sql);
    EXPECT_TRUE(q.ok()) << sql;
    return MqoCompatibilityKey(*q);
  };
  // Different grouping / aggregates, same table + WHERE: compatible.
  EXPECT_EQ(key("SELECT stateId, sum(itemQty) AS s FROM f GROUP BY stateId"),
            key("SELECT dayOfWeekNo, count(*) AS n FROM f "
                "GROUP BY dayOfWeekNo"));
  // Mixed WHERE must never batch.
  EXPECT_NE(key("SELECT stateId, sum(itemQty) AS s FROM f "
                "WHERE stateId < 3 GROUP BY stateId"),
            key("SELECT stateId, sum(itemQty) AS s FROM f "
                "WHERE stateId < 5 GROUP BY stateId"));
  EXPECT_NE(key("SELECT stateId, sum(itemQty) AS s FROM f GROUP BY stateId"),
            key("SELECT stateId, sum(itemQty) AS s FROM f "
                "WHERE stateId < 3 GROUP BY stateId"));
}

TEST(MqoPlanTest, UnionScanDedupesSharedPartials) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(100)).ok());
  std::vector<AnalyzedQuery> analyzed;
  for (const char* sql :
       {"SELECT stateId, sum(itemQty) AS s FROM f GROUP BY stateId",
        "SELECT dayOfWeekNo, stateId, sum(itemQty) AS s, count(*) AS n "
        "FROM f GROUP BY dayOfWeekNo, stateId"}) {
    analyzed.push_back(*db.PrepareQuery(sql));
  }
  Result<MqoBatchPlan> plan =
      PlanMqoBatch({&analyzed[0], &analyzed[1]});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Union finest level covers both queries; the shared sum(itemQty) is
  // computed once.
  EXPECT_EQ(plan->scan_cols.size(), 2u);
  EXPECT_EQ(plan->scan_partials.size(), 2u);  // sum(itemQty), count(*)
  EXPECT_EQ(plan->partials_requested, 3u);
  EXPECT_LT(plan->scan_partials.size(), plan->partials_requested);
}

// --- Bit-identity sweep ------------------------------------------------------

class MqoSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MqoSweep, BatchMatchesSoloBitIdentical) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(20000)).ok());
  std::vector<std::string> sqls(kBatchSqls, kBatchSqls + kNumBatchSqls);
  ExpectBatchBitIdentical(&db, sqls, GetParam());
}

TEST_P(MqoSweep, NullGroupKeysBatchMatchesSolo) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", NullableFact(11, 4000)).ok());
  std::vector<std::string> sqls = {
      "SELECT g, sum(v) AS s, count(*) AS n FROM f GROUP BY g ORDER BY g",
      "SELECT k, g, sum(v) AS s FROM f GROUP BY k, g ORDER BY k, g",
      "SELECT count(*) AS n, sum(v) AS s FROM f",
  };
  ExpectBatchBitIdentical(&db, sqls, GetParam());
}

TEST_P(MqoSweep, DictionaryStringKeysBatchMatchesSolo) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateSalesNamed(8000)).ok());
  // INT64 measures only (dept/count) so CSV equality is exact for string
  // dimension keys; float sums carry the documented reassociation caveat.
  std::vector<std::string> sqls = {
      "SELECT state, count(*) AS n, sum(dept) AS d FROM f "
      "GROUP BY state ORDER BY state",
      "SELECT state, city, count(*) AS n FROM f "
      "GROUP BY state, city ORDER BY state, city",
  };
  ExpectBatchBitIdentical(&db, sqls, GetParam());
}

// Through the executor gate: N concurrent compatible queries form one batch
// (one shared scan) and every member's bytes equal its solo execution.
TEST_P(MqoSweep, ExecutorBatchesConcurrentCompatibleQueries) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(20000)).ok());
  const size_t dop = GetParam();
  std::vector<std::string> solo(kNumBatchSqls);
  for (size_t i = 0; i < kNumBatchSqls; ++i) {
    solo[i] = SoloCsv(&db, kBatchSqls[i], dop);
  }

  ExecutorConfig config;
  config.worker_threads = 8;
  config.mqo_window_ms = 2000;  // generous: max_batch closes the batch early
  config.mqo_max_batch = kNumBatchSqls;
  QueryExecutor executor(&db, config);
  std::vector<std::string> got(kNumBatchSqls);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kNumBatchSqls; ++i) {
    threads.emplace_back([&, i] {
      QueryOptions opts;
      opts.degree_of_parallelism = dop;
      opts.mqo = MqoMode::kOn;
      Result<Table> r = executor.ExecuteStatement(kBatchSqls[i], opts, 0);
      ASSERT_TRUE(r.ok()) << kBatchSqls[i] << ": " << r.status().ToString();
      got[i] = FormatCsv(*r);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < kNumBatchSqls; ++i) {
    EXPECT_EQ(got[i], solo[i]) << kBatchSqls[i];
  }
  EXPECT_EQ(executor.mqo_gate().queries_batched(), kNumBatchSqls);
  EXPECT_EQ(executor.mqo_gate().batches(), 1u);
  EXPECT_GT(executor.mqo_gate().scan_rows_saved(), 0u);
}

// Sharded fact: the executor's gate batches sharded reads like local ones,
// and the leader's one read at the union level scatters ONE merged PARTIAL
// per worker instead of N. The default SET mqo auto prices the batch from
// the SHARD-time statistics.
TEST_P(MqoSweep, ShardedBatchScattersOnce) {
  const size_t dop = GetParam();
  PctDatabase coord_db;
  ASSERT_TRUE(
      coord_db.CreateTable("f", GenerateTransactionLine(12000)).ok());
  std::vector<std::string> sqls(kBatchSqls, kBatchSqls + 3);
  std::vector<std::string> want(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    want[i] = SoloCsv(&coord_db, sqls[i], dop);
  }

  std::vector<std::unique_ptr<PctDatabase>> worker_dbs;
  std::vector<std::unique_ptr<PctServer>> workers;
  std::vector<dist::WorkerEndpoint> endpoints;
  for (size_t i = 0; i < 2; ++i) {
    worker_dbs.push_back(std::make_unique<PctDatabase>());
    ServerConfig wc;
    wc.port = 0;
    wc.worker_threads = 2;
    workers.push_back(
        std::make_unique<PctServer>(worker_dbs.back().get(), wc));
    ASSERT_TRUE(workers.back()->Start().ok());
    endpoints.push_back({"127.0.0.1", workers.back()->port()});
  }
  dist::CoordinatorConfig config;
  config.shard_timeout_ms = 10000;
  config.shard_attempts = 2;
  dist::Coordinator coordinator(&coord_db, endpoints, config);
  ASSERT_TRUE(coordinator.ShardTable("f", "cityId").ok());
  ExecutorConfig gate;
  gate.worker_threads = 4;
  gate.mqo_window_ms = 2000;  // generous: max_batch closes the batch early
  gate.mqo_max_batch = sqls.size();
  QueryExecutor executor(&coord_db, gate);

  const uint64_t scatters_before =
      obs::GlobalMetrics().CounterValue("pctagg_dist_queries_total");
  std::vector<std::string> got(sqls.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sqls.size(); ++i) {
    threads.emplace_back([&, i] {
      QueryOptions opts;
      opts.degree_of_parallelism = dop;
      Result<Table> r = executor.ExecuteStatement(sqls[i], opts, 0);
      ASSERT_TRUE(r.ok()) << sqls[i] << ": " << r.status().ToString();
      got[i] = FormatCsv(*r);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < sqls.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << sqls[i];
  }
  EXPECT_EQ(executor.mqo_gate().queries_batched(), sqls.size());
  // The whole batch cost one scatter (one merged PARTIAL per worker).
  EXPECT_EQ(
      obs::GlobalMetrics().CounterValue("pctagg_dist_queries_total"),
      scatters_before + 1);
}

INSTANTIATE_TEST_SUITE_P(Dop, MqoSweep, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "dop" + std::to_string(info.param);
                         });

// --- Gate admission rules ----------------------------------------------------

// Identical concurrent cache misses: the batch dedupes to ONE summary-cache
// entry and fills it exactly once; a second round answers from the cache.
TEST(MqoGateTest, BatchFillsEachDedupedCacheEntryExactlyOnce) {
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(20000)).ok());
  ExecutorConfig config;
  config.worker_threads = 8;
  config.mqo_window_ms = 2000;
  config.mqo_max_batch = 4;
  QueryExecutor executor(&db, config);
  auto run_round = [&] {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < 4; ++i) {
      threads.emplace_back([&] {
        QueryOptions opts;
        opts.mqo = MqoMode::kOn;
        Result<Table> r = executor.ExecuteStatement(kBatchSqls[1], opts, 0);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      });
    }
    for (std::thread& t : threads) t.join();
  };
  run_round();
  EXPECT_EQ(db.summaries().misses(), 1u);  // one fill for the whole herd
  EXPECT_EQ(db.summaries().size(), 1u);
  EXPECT_EQ(db.summaries().stale_inserts(), 0u);
  run_round();
  EXPECT_EQ(db.summaries().misses(), 1u);  // second batch hits the cache
  EXPECT_GE(db.summaries().hits(), 1u);
}

TEST(MqoGateTest, MixedWhereDoesNotBatch) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(5000)).ok());
  const std::vector<std::string> sqls = {
      "SELECT stateId, sum(itemQty) AS s FROM f WHERE stateId < 3 "
      "GROUP BY stateId ORDER BY stateId",
      "SELECT stateId, sum(itemQty) AS s FROM f WHERE stateId < 5 "
      "GROUP BY stateId ORDER BY stateId",
  };
  std::vector<std::string> want;
  for (const std::string& sql : sqls) want.push_back(SoloCsv(&db, sql, 1));

  ExecutorConfig config;
  config.worker_threads = 4;
  config.mqo_window_ms = 150;
  config.mqo_max_batch = 2;
  QueryExecutor executor(&db, config);
  std::vector<std::string> got(sqls.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sqls.size(); ++i) {
    threads.emplace_back([&, i] {
      QueryOptions opts;
      opts.mqo = MqoMode::kOn;
      Result<Table> r = executor.ExecuteStatement(sqls[i], opts, 0);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      got[i] = FormatCsv(*r);
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < sqls.size(); ++i) EXPECT_EQ(got[i], want[i]);
  // Different WHERE -> different compatibility keys -> two solo batches.
  EXPECT_EQ(executor.mqo_gate().queries_batched(), 0u);
  EXPECT_EQ(executor.mqo_gate().scan_rows_saved(), 0u);
}

// A deadline tighter than the collection window escapes the gate entirely:
// the query runs solo immediately instead of parking.
TEST(MqoGateTest, TightDeadlineEscapesTheGate) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(2000)).ok());
  ExecutorConfig config;
  config.worker_threads = 2;
  config.mqo_window_ms = 200;  // escape threshold = 800 ms
  QueryExecutor executor(&db, config);
  QueryOptions opts;
  opts.mqo = MqoMode::kOn;
  Result<Table> r = executor.ExecuteStatement(kBatchSqls[1], opts,
                                              /*timeout_ms=*/300);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(executor.mqo_gate().solo_escapes(), 1u);
  EXPECT_EQ(executor.mqo_gate().batches(), 0u);
  // No deadline (0) never escapes.
  Result<Table> r2 = executor.ExecuteStatement(kBatchSqls[1], opts, 0);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(executor.mqo_gate().solo_escapes(), 1u);
}

// SET mqo off bypasses the gate without touching results.
TEST(MqoGateTest, MqoOffNeverTouchesTheGate) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(2000)).ok());
  QueryExecutor executor(&db, ExecutorConfig{2, 64});
  QueryOptions opts;
  opts.mqo = MqoMode::kOff;
  Result<Table> r = executor.ExecuteStatement(kBatchSqls[0], opts, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(FormatCsv(*r), SoloCsv(&db, kBatchSqls[0], 1));
  EXPECT_EQ(executor.mqo_gate().batches(), 0u);
  EXPECT_EQ(executor.mqo_gate().solo_escapes(), 0u);
}

// EXPLAIN ANALYZE through the gate renders the mqo-batch cost candidate.
TEST(MqoGateTest, ExplainAnalyzeShowsBatchCandidate) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(5000)).ok());
  QueryExecutor executor(&db, ExecutorConfig{2, 64});
  QueryOptions opts;
  opts.mqo = MqoMode::kAuto;
  Result<Table> r = executor.ExecuteStatement(
      std::string("EXPLAIN ANALYZE ") + kBatchSqls[1], opts, 0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string plan;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    plan += r->column(0).GetValue(i).ToString() + "\n";
  }
  EXPECT_NE(plan.find("mqo-batch"), std::string::npos) << plan;
  EXPECT_NE(plan.find("solo fused scans"), std::string::npos) << plan;
}

// Runs `sqls` concurrently through `executor` as one gate batch, each with
// its own trace; returns each member's result.
std::vector<Result<Table>> RunTracedBatch(
    QueryExecutor* executor, const std::vector<std::string>& sqls,
    MqoMode mode, std::vector<std::shared_ptr<obs::QueryTrace>>* traces) {
  std::vector<Result<Table>> got(sqls.size(), Result<Table>(Table()));
  traces->clear();
  for (size_t i = 0; i < sqls.size(); ++i) {
    traces->push_back(std::make_shared<obs::QueryTrace>());
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sqls.size(); ++i) {
    threads.emplace_back([&, i] {
      QueryOptions opts;
      opts.degree_of_parallelism = 1;
      opts.mqo = mode;
      got[i] = executor->ExecuteStatement(sqls[i], opts, 0, (*traces)[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  return got;
}

// The first node under `node` whose operator ran a morsel dispatch.
const obs::TraceNode* FindMorselNode(const obs::TraceNode& node) {
  if (node.stats.morsels != 0) return &node;
  for (const auto& child : node.children) {
    const obs::TraceNode* found = FindMorselNode(*child);
    if (found != nullptr) return found;
  }
  return nullptr;
}

// An error's text without the temp-table names a materialized plan puts in
// its "while executing" suffix.
std::string ErrorHead(const Status& status) {
  const std::string text = status.ToString();
  return text.substr(0, text.find(" (while executing"));
}

// Every member's executor thread is parked while the leader scans, so a
// batch of N dop-1 sessions scans at dop min(N, cores) — read off the
// mqo-batch node every traced member shows. The union scan under it reports
// the workers that ran a morsel: at most that dop, and fewer only when the
// engine's pool was too busy to start a helper in time.
TEST(MqoGateTest, BatchScansWithTheCoresItsMembersBrought) {
  PctDatabase db;
  // Enough rows that the union scan splits into more morsels than workers.
  ASSERT_TRUE(db.CreateTable("f", GenerateTransactionLine(100000)).ok());
  const std::vector<std::string> sqls(kBatchSqls, kBatchSqls + kNumBatchSqls);
  ExecutorConfig config;
  config.worker_threads = 8;
  config.mqo_window_ms = 2000;  // max_batch closes the batch early
  config.mqo_max_batch = sqls.size();
  QueryExecutor executor(&db, config);
  std::vector<std::shared_ptr<obs::QueryTrace>> traces;
  std::vector<Result<Table>> got =
      RunTracedBatch(&executor, sqls, MqoMode::kOn, &traces);
  EXPECT_EQ(executor.mqo_gate().batches(), 1u);
  EXPECT_EQ(executor.mqo_gate().queries_batched(), sqls.size());

  const size_t want_dop = std::min(sqls.size(), AvailableParallelism());
  for (size_t i = 0; i < sqls.size(); ++i) {
    SCOPED_TRACE(sqls[i]);
    ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
    EXPECT_EQ(FormatCsv(*got[i]), SoloCsv(&db, sqls[i], 1));
    const obs::TraceNode* batch_node = nullptr;
    for (const auto& child : traces[i]->root().children) {
      if (child->label == "mqo-batch") batch_node = child.get();
    }
    ASSERT_NE(batch_node, nullptr) << traces[i]->Render();
    EXPECT_NE(batch_node->detail.find(StrFormat("at dop %zu ", want_dop)),
              std::string::npos)
        << traces[i]->Render();
    EXPECT_GT(batch_node->stats.wall_ms, 0) << traces[i]->Render();
    const obs::TraceNode* scan = FindMorselNode(*batch_node);
    ASSERT_NE(scan, nullptr) << traces[i]->Render();
    EXPECT_GE(scan->stats.morsels, want_dop) << traces[i]->Render();
    EXPECT_GE(scan->stats.workers, 1u) << traces[i]->Render();
    EXPECT_LE(scan->stats.workers, want_dop) << traces[i]->Render();
    EXPECT_EQ(scan->stats.rows_in, 100000u);
  }
}

// A batch whose union scan fails publishes no partials, and a member whose
// own tail fails after a good scan is answered apart from its batch-mates:
// either way every member gets exactly its solo error or result.
TEST(MqoGateTest, FailedBatchReturnsEachMembersOwnErrorOrResult) {
  Table t(Schema({{"g", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"w", DataType::kFloat64}}));
  for (int64_t i = 0; i < 4000; ++i) {
    t.AppendRow({Value::Int64(i % 7), Value::Int64(i % 13),
                 Value::Float64(0.5)});
  }
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", std::move(t)).ok());
  auto solo = [&](const std::string& sql) {
    QueryOptions options;
    options.mqo = MqoMode::kOff;
    return db.Query(sql, options);
  };
  ExecutorConfig config;
  config.worker_threads = 4;
  config.mqo_window_ms = 2000;
  config.mqo_max_batch = 3;
  QueryExecutor executor(&db, config);
  std::vector<std::shared_ptr<obs::QueryTrace>> traces;

  // The shared WHERE is not boolean: the union scan itself fails.
  const std::vector<std::string> bad_scan = {
      "SELECT g, sum(v) AS s FROM f WHERE w GROUP BY g",
      "SELECT count(*) AS n FROM f WHERE w",
      "SELECT g, Vpct(v) AS p FROM f WHERE w GROUP BY g",
  };
  std::vector<Result<Table>> got =
      RunTracedBatch(&executor, bad_scan, MqoMode::kOn, &traces);
  for (size_t i = 0; i < bad_scan.size(); ++i) {
    SCOPED_TRACE(bad_scan[i]);
    const Result<Table> want = solo(bad_scan[i]);
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got[i].ok());
    EXPECT_EQ(ErrorHead(got[i].status()), ErrorHead(want.status()));
  }
  EXPECT_EQ(executor.mqo_gate().queries_batched(), 0u);

  // The scan succeeds; one member's HAVING fails on its own rows.
  const std::vector<std::string> bad_tail = {
      "SELECT g, sum(v) AS s FROM f GROUP BY g ORDER BY g",
      "SELECT g, sum(v) AS s, avg(v) AS a FROM f GROUP BY g HAVING a AND s > 0",
      "SELECT count(*) AS n, sum(v) AS s FROM f",
  };
  got = RunTracedBatch(&executor, bad_tail, MqoMode::kOn, &traces);
  EXPECT_EQ(executor.mqo_gate().queries_batched(), bad_tail.size());
  for (size_t i = 0; i < bad_tail.size(); ++i) {
    SCOPED_TRACE(bad_tail[i]);
    const Result<Table> want = solo(bad_tail[i]);
    ASSERT_EQ(got[i].ok(), want.ok()) << got[i].status().ToString();
    if (want.ok()) {
      EXPECT_EQ(FormatCsv(*got[i]), FormatCsv(*want));
    } else {
      EXPECT_EQ(ErrorHead(got[i].status()), ErrorHead(want.status()));
    }
  }
  EXPECT_FALSE(solo(bad_tail[1]).ok());
}

}  // namespace
}  // namespace pctagg
