// Multi-process-shaped integration tests for sharded tables
// (docs/SHARDING.md): real PctServer workers on loopback ephemeral ports, a
// dist::Coordinator scattering over persistent PctClient links, the gather
// that concatenates the replies in shard order and rolls them up, and the
// coordinator database that plans and answers every statement itself.
// Everything runs in-process so ctest needs no orchestration, but every byte
// between coordinator and worker crosses a TCP socket exactly as it would
// across machines.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "dist/coordinator.h"
#include "engine/csv.h"
#include "engine/table.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

// Coordinator policy tuned for tests: fail fast instead of the production
// 30 s deadline / 2 s backoff ceiling.
dist::CoordinatorConfig FastConfig() {
  dist::CoordinatorConfig config;
  config.shard_timeout_ms = 10000;
  config.shard_attempts = 2;
  config.backoff_initial_ms = 5;
  config.backoff_max_ms = 20;
  return config;
}

// N worker servers plus a coordinator database wired to them. The
// coordinator's own PctServer is optional (StartCoordinatorServer) — most
// tests query the coordinator database directly to get Tables back for
// comparison.
class Cluster {
 public:
  explicit Cluster(size_t num_workers,
                   dist::CoordinatorConfig config = FastConfig()) {
    std::vector<dist::WorkerEndpoint> endpoints;
    for (size_t i = 0; i < num_workers; ++i) {
      worker_dbs_.push_back(std::make_unique<PctDatabase>());
      ServerConfig wc;
      wc.port = 0;
      wc.worker_threads = 2;
      workers_.push_back(
          std::make_unique<PctServer>(worker_dbs_.back().get(), wc));
      Status st = workers_.back()->Start();
      EXPECT_TRUE(st.ok()) << st.ToString();
      endpoints.push_back({"127.0.0.1", workers_.back()->port()});
    }
    coordinator_ = std::make_unique<dist::Coordinator>(&db_, endpoints, config);
  }

  PctDatabase& db() { return db_; }
  dist::Coordinator& coordinator() { return *coordinator_; }
  PctDatabase& worker_db(size_t i) { return *worker_dbs_[i]; }
  PctServer& worker(size_t i) { return *workers_[i]; }

  // Starts a coordinator-mode server (router wired) for wire-level tests.
  int StartCoordinatorServer() {
    ServerConfig config;
    config.port = 0;
    config.worker_threads = 2;
    config.router = coordinator_.get();
    server_ = std::make_unique<PctServer>(&db_, config);
    Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return server_->port();
  }

  PctServer& server() { return *server_; }

  // Runs `sql` on the coordinator database at `dop`.
  Result<Table> Distributed(const std::string& sql, size_t dop = 1) {
    QueryOptions options;
    options.degree_of_parallelism = dop;
    return db_.Query(sql, options);
  }

 private:
  PctDatabase db_;
  std::vector<std::unique_ptr<PctDatabase>> worker_dbs_;
  std::vector<std::unique_ptr<PctServer>> workers_;
  std::unique_ptr<dist::Coordinator> coordinator_;
  std::unique_ptr<PctServer> server_;
};

std::string LocalCsv(PctDatabase* db, const std::string& sql, size_t dop = 1) {
  QueryOptions options;
  options.degree_of_parallelism = dop;
  Result<Table> r = db->Query(sql, options);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? FormatCsv(*r) : std::string();
}

// Hpct pivot column order is first-seen, and the gather sees the shards'
// rows in shard order rather than fact order, so horizontal results are
// compared cell by cell through column-name lookup instead of whole-CSV
// equality.
void ExpectSameByColumnName(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_columns(), want.num_columns());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const std::string& name = want.schema().column(c).name;
    Result<size_t> gc = got.schema().FindColumn(name);
    ASSERT_TRUE(gc.ok()) << "missing column " << name;
    for (size_t i = 0; i < want.num_rows(); ++i) {
      EXPECT_EQ(got.column(*gc).GetValue(i), want.column(c).GetValue(i))
          << name << " row " << i;
    }
  }
}

// An INT64-measure fact with NULLs in both the shard key and a group
// column: every merge path (NULL key routing, NULL group cells) exercised.
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

constexpr char kVpctSql[] =
    "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct FROM f "
    "GROUP BY dayOfWeekNo, stateId ORDER BY dayOfWeekNo, stateId";

// --- Bit-identity vs single-node --------------------------------------------

// The headline guarantee: on INT64 measures a sharded Vpct is byte-for-byte
// the single-node answer at every dop, because shard partials are integer
// sums whose merge is associative and the final divide happens once,
// coordinator-side.
TEST(DistTest, VpctBitIdenticalToSingleNodeAcrossDop) {
  Cluster cluster(3);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(20000)).ok());
  std::string want = LocalCsv(&cluster.db(), kVpctSql);
  ASSERT_FALSE(want.empty());

  Status st = cluster.coordinator().ShardTable("f", "cityId");
  ASSERT_TRUE(st.ok()) << st.ToString();
  // The local table is now a zero-row stub; answers come from the shards.
  EXPECT_EQ(cluster.db().catalog().GetTable("f").value()->num_rows(), 0u);

  for (size_t dop : {size_t{1}, size_t{4}}) {
    Result<Table> got = cluster.Distributed(kVpctSql, dop);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FormatCsv(*got), want) << "dop=" << dop;
  }
}

TEST(DistTest, GlobalAggregateMatchesSingleNode) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(5000)).ok());
  const std::string sql =
      "SELECT sum(itemQty) AS s, count(*) AS n FROM f";
  std::string want = LocalCsv(&cluster.db(), sql);
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "storeId").ok());
  Result<Table> got = cluster.Distributed(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(FormatCsv(*got), want);
}

// NULLs both as shard-key values (routed to shard 0) and as group keys
// (merged across shards into one NULL group).
TEST(DistTest, NullShardKeysAndNullGroupKeys) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.db().CreateTable("f", NullableFact(7, 4000)).ok());
  const std::string sql =
      "SELECT g, sum(v) AS s, count(*) AS n FROM f GROUP BY g ORDER BY g";
  const std::string by_key =
      "SELECT k, g, sum(v) AS s FROM f GROUP BY k, g ORDER BY k, g";
  std::string want = LocalCsv(&cluster.db(), sql);
  std::string want_by_key = LocalCsv(&cluster.db(), by_key);
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "k").ok());
  Result<Table> got = cluster.Distributed(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(FormatCsv(*got), want);
  // Grouping by the shard key itself: each group lives on one shard, the
  // merge still has to keep the NULL group distinct from every hash bucket.
  Result<Table> got_by_key = cluster.Distributed(by_key, 4);
  ASSERT_TRUE(got_by_key.ok()) << got_by_key.status().ToString();
  EXPECT_EQ(FormatCsv(*got_by_key), want_by_key);
}

// String dimensions: each worker builds its own dictionary over the shard
// it received, so codes for the same string differ across shards and the
// gather must merge through value translation, not code equality.
TEST(DistTest, DictionaryStringKeysMergeByValue) {
  Cluster cluster(3);
  ASSERT_TRUE(
      cluster.db().CreateTable("sales", GenerateSalesNamed(8000)).ok());
  const std::string sql =
      "SELECT state, city, count(*) AS n, sum(salesAmt) AS s FROM sales "
      "GROUP BY state, city ORDER BY state, city";
  Result<Table> want = cluster.db().Query(sql);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("sales", "city").ok());
  Result<Table> got = cluster.Distributed(sql, 4);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // String keys and INT64 count are exact; the float sum is compared with a
  // reassociation tolerance (docs/PARALLELISM.md).
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (size_t i = 0; i < want->num_rows(); ++i) {
    EXPECT_EQ(got->column(0).GetValue(i), want->column(0).GetValue(i));
    EXPECT_EQ(got->column(1).GetValue(i), want->column(1).GetValue(i));
    EXPECT_EQ(got->column(2).GetValue(i), want->column(2).GetValue(i));
    EXPECT_NEAR(got->column(3).Float64At(i), want->column(3).Float64At(i),
                1e-6 * (1.0 + std::abs(want->column(3).Float64At(i))));
  }
}

TEST(DistTest, HorizontalPivotMatchesPerColumn) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(6000)).ok());
  const std::string sql =
      "SELECT stateId, Hpct(itemQty BY dayOfWeekNo) FROM f "
      "GROUP BY stateId ORDER BY stateId";
  Result<Table> want = cluster.db().Query(sql);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  Result<Table> got = cluster.Distributed(sql, 4);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameByColumnName(*got, *want);
}

// CUBE over shards: the deduplicated finest-level partial is scattered once
// and the whole lattice is assembled coordinator-side from the merge.
TEST(DistTest, DistributedCubeMatchesSingleNode) {
  Cluster cluster(3);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(6000)).ok());
  const std::string sql =
      "SELECT stateId, dayOfWeekNo, sum(itemQty) AS s, count(*) AS n FROM f "
      "GROUP BY CUBE(stateId, dayOfWeekNo) ORDER BY stateId, dayOfWeekNo";
  std::string want = LocalCsv(&cluster.db(), sql, 4);
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  for (size_t dop : {size_t{1}, size_t{4}}) {
    Result<Table> got = cluster.Distributed(sql, dop);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FormatCsv(*got), want) << "dop=" << dop;
  }
}

// A WHERE on a non-key column rides in every shard's PARTIAL, which the
// worker answers with one fused mask scan; the merged answer must still be
// the single-node one, byte for byte, for Vpct, Hpct and CUBE alike.
TEST(DistTest, FilteredQueriesMatchSingleNode) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(20000)).ok());
  const std::string vpct =
      "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct FROM f "
      "WHERE monthNo <= 6 GROUP BY dayOfWeekNo, stateId "
      "ORDER BY dayOfWeekNo, stateId";
  const std::string hpct =
      "SELECT stateId, Hpct(itemQty BY dayOfWeekNo) FROM f "
      "WHERE monthNo <= 6 AND storeId <> 3 GROUP BY stateId ORDER BY stateId";
  const std::string cube =
      "SELECT stateId, dayOfWeekNo, sum(itemQty) AS s, count(*) AS n FROM f "
      "WHERE itemQty > 2 OR monthNo = 1 GROUP BY CUBE(stateId, dayOfWeekNo) "
      "ORDER BY stateId, dayOfWeekNo";
  const std::string want_vpct = LocalCsv(&cluster.db(), vpct);
  const std::string want_cube = LocalCsv(&cluster.db(), cube, 4);
  Result<Table> want_hpct = cluster.db().Query(hpct);
  ASSERT_TRUE(want_hpct.ok()) << want_hpct.status().ToString();
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());

  for (size_t dop : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    Result<Table> got = cluster.Distributed(vpct, dop);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FormatCsv(*got), want_vpct);
    got = cluster.Distributed(cube, dop);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FormatCsv(*got), want_cube);
    got = cluster.Distributed(hpct, dop);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameByColumnName(*got, *want_hpct);
  }
}

// A WHERE that no row on any shard passes: every worker returns an empty
// partial (or the one NULL/0 row of a global aggregate) and the merge must
// reproduce the single-node answer.
TEST(DistTest, WhereNoShardRowPassesMatchesSingleNode) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(5000)).ok());
  const std::vector<std::string> queries = {
      "SELECT dayOfWeekNo, stateId, Vpct(itemQty BY stateId) AS pct FROM f "
      "WHERE monthNo > 99 GROUP BY dayOfWeekNo, stateId",
      "SELECT stateId, sum(itemQty) AS s, count(*) AS n FROM f "
      "WHERE monthNo > 99 GROUP BY stateId",
      "SELECT sum(itemQty) AS s, count(*) AS n, count(itemQty) AS c FROM f "
      "WHERE monthNo > 99"};
  std::vector<std::string> want;
  for (const std::string& sql : queries) {
    want.push_back(LocalCsv(&cluster.db(), sql));
  }
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    Result<Table> got = cluster.Distributed(queries[i], 4);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FormatCsv(*got), want[i]);
  }
  // The global aggregate over no rows is one row: NULL sum, count 0.
  EXPECT_EQ(want[2], "s,n,c\n,0,0\n");
}

// min/max of INT64 values above 2^53 (and of the type's extremes) stay exact
// through every worker's partial and the coordinator's merge.
TEST(DistTest, Int64MinMaxAreExactAcrossShards) {
  constexpr int64_t k2To53 = 9007199254740992;
  Table t(Schema({{"s", DataType::kInt64},
                  {"k", DataType::kInt64},
                  {"id", DataType::kInt64}}));
  const int64_t ids[][2] = {{1, k2To53},          {1, k2To53 + 1},
                            {2, k2To53 + 3},      {2, k2To53 + 2},
                            {3, INT64_MAX},       {3, INT64_MIN + 1}};
  for (size_t i = 0; i < 6; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(i)), Value::Int64(ids[i][0]),
                 Value::Int64(ids[i][1])});
  }
  Cluster cluster(2);
  ASSERT_TRUE(cluster.db().CreateTable("t", std::move(t)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("t", "s").ok());
  Result<Table> got = cluster.Distributed(
      "SELECT k, max(id) AS hi, min(id) AS lo FROM t GROUP BY k ORDER BY k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(FormatCsv(*got),
            "k,hi,lo\n"
            "1,9007199254740993,9007199254740992\n"
            "2,9007199254740995,9007199254740994\n"
            "3,9223372036854775807,-9223372036854775807\n");
  Result<Table> global =
      cluster.Distributed("SELECT max(id) AS hi, min(id) AS lo FROM t", 4);
  ASSERT_TRUE(global.ok()) << global.status().ToString();
  EXPECT_EQ(FormatCsv(*global),
            "hi,lo\n9223372036854775807,-9223372036854775807\n");
}

// --- Failure semantics -------------------------------------------------------

// Killing a worker mid-topology turns the next query into a typed
// Unavailable naming the shard — not a hang, not a partial answer.
TEST(DistTest, ShardLossYieldsUnavailableNamingTheShard) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(3000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  ASSERT_TRUE(cluster.Distributed(kVpctSql).ok());

  cluster.worker(1).Stop();
  Result<Table> got = cluster.Distributed(kVpctSql);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find("shard 1"), std::string::npos)
      << got.status().ToString();
}

TEST(DistTest, ShardedTableIsReadOnlyAndReshardRejected) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(1000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());

  Result<Table> ins = cluster.db().Execute(
      "INSERT INTO f VALUES (1, 1, 1, 1, 2020, 1, 1, 1, 1, 1, 1, 1, 1.0, "
      "1.0)");
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ins.status().message().find("read-only"), std::string::npos);
  Result<AppendOutcome> appended =
      cluster.db().AppendRows("f", GenerateTransactionLine(10));
  ASSERT_FALSE(appended.ok());
  EXPECT_NE(appended.status().message().find("read-only"), std::string::npos);

  Status reshard = cluster.coordinator().ShardTable("f", "stateId");
  ASSERT_FALSE(reshard.ok());
  EXPECT_NE(reshard.message().find("already sharded"), std::string::npos);

  // An unsharded table on the coordinator answers locally.
  PctDatabase local;
  ASSERT_TRUE(local.CreateTable("g", NullableFact(1, 10)).ok());
  ASSERT_TRUE(cluster.db().CreateTable("g", NullableFact(1, 10)).ok());
  const std::string sql = "SELECT g, sum(v) AS s FROM g GROUP BY g";
  EXPECT_EQ(LocalCsv(&cluster.db(), sql), LocalCsv(&local, sql));
}

// DROP fans out to every worker, then forgets the stub and the shard map.
TEST(DistTest, DistributedDropForgetsEverywhere) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(1000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(cluster.worker_db(i).catalog().GetTable("f").ok());
  }

  Result<Table> drop = cluster.db().Execute("DROP TABLE f");
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  EXPECT_EQ(drop->column(0).GetValue(0), Value::Int64(1));

  EXPECT_EQ(cluster.db().Sharding("f"), nullptr);
  EXPECT_FALSE(cluster.db().catalog().GetTable("f").ok());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(cluster.worker_db(i).catalog().GetTable("f").ok());
  }
}

// --- EXPLAIN surfaces the topology ------------------------------------------

TEST(DistTest, ExplainAndExplainAnalyzeShowFanout) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(3000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());

  Result<Table> plan = cluster.Distributed(std::string("EXPLAIN ") + kVpctSql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = FormatCsv(*plan);
  EXPECT_NE(text.find("2 shards"), std::string::npos) << text;
  EXPECT_NE(text.find("PARTIAL"), std::string::npos) << text;

  Result<Table> analyzed =
      cluster.Distributed(std::string("EXPLAIN ANALYZE ") + kVpctSql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  text = FormatCsv(*analyzed);
  EXPECT_NE(text.find("partial from shards"), std::string::npos) << text;
  EXPECT_NE(text.find("shard 0"), std::string::npos) << text;
  EXPECT_NE(text.find("shard 1"), std::string::npos) << text;
  EXPECT_NE(text.find("gather-merge"), std::string::npos) << text;
}

// The server's EXPLAIN verb (the clients' .explain) takes the statement path
// of QUERY "EXPLAIN ...": on a coordinator it prints the scatter, not the
// materialized script over the zero-row stub, and it plans with the
// session's settings.
TEST(DistTest, ExplainVerbFollowsTheRouterAndTheSession) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(3000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  int port = cluster.StartCoordinatorServer();
  Result<PctClient> client = PctClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<WireResponse> set = client->Call(RequestVerb::kSet, "dop 2");
  ASSERT_TRUE(set.ok() && set->status.ok());
  Result<WireResponse> verb = client->Explain(kVpctSql);
  ASSERT_TRUE(verb.ok()) << verb.status().ToString();
  ASSERT_TRUE(verb->status.ok()) << verb->status.ToString();
  EXPECT_NE(verb->body.find("\nscatter: PARTIAL 2 SELECT"), std::string::npos)
      << verb->body;
  EXPECT_NE(verb->body.find("-> 2 shards"), std::string::npos) << verb->body;
  EXPECT_EQ(verb->body.find("INSERT INTO"), std::string::npos) << verb->body;

  // The same plan as EXPLAIN sent through QUERY, line for line.
  Result<WireResponse> query =
      client->Query(std::string("EXPLAIN ") + kVpctSql);
  ASSERT_TRUE(query.ok() && query->status.ok());
  Schema plan_schema;
  plan_schema.AddColumn({"plan", DataType::kString});
  Result<Table> rows = ParseCsv(query->body, plan_schema);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::string lines;
  for (size_t i = 0; i < rows->num_rows(); ++i) {
    lines += rows->column(0).StringAt(i) + "\n";
  }
  EXPECT_EQ(verb->body, lines);
}

// The "predicted group rows: N" line of a rendered EXPLAIN ANALYZE.
std::string PredictedGroupRows(const std::string& text) {
  const size_t begin = text.find("predicted group rows: ");
  if (begin == std::string::npos) return "";
  return text.substr(begin, text.find_first_of(" \n", begin + 22) - begin);
}

// The coordinator prices a sharded query from the planner statistics the
// single node would use: a key-like group column over more rows than the
// 20,000-row sample extrapolates to n on both sides.
TEST(DistTest, ShardedCostEstimatesMatchSingleNode) {
  Table fact(Schema({{"id", DataType::kInt64},
                     {"g", DataType::kInt64},
                     {"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 25000; ++i) {
    fact.AppendRow({Value::Int64(i), Value::Int64(i % 5), Value::Int64(i % 100)});
  }
  Cluster cluster(2);
  ASSERT_TRUE(cluster.db().CreateTable("f", std::move(fact)).ok());
  const std::string sql =
      "EXPLAIN ANALYZE SELECT id, Vpct(v) AS pct FROM f GROUP BY id";
  Result<Table> local = cluster.db().Query(sql);
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "g").ok());
  Result<Table> sharded = cluster.Distributed(sql);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const std::string want = PredictedGroupRows(FormatCsv(*local));
  EXPECT_EQ(want, "predicted group rows: 25000");
  EXPECT_EQ(PredictedGroupRows(FormatCsv(*sharded)), want);
}

// --- Wire level: coordinator server with the router installed ---------------

TEST(DistTest, WireLevelShardQueryAndShowRoundTrip) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(4000)).ok());
  int port = cluster.StartCoordinatorServer();

  Result<PctClient> client = PctClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<WireResponse> before = client->Query(kVpctSql);
  ASSERT_TRUE(before.ok() && before->status.ok());

  Result<WireResponse> shard = client->Call(RequestVerb::kShard, "f cityId");
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  ASSERT_TRUE(shard->status.ok()) << shard->status.ToString();
  EXPECT_NE(shard->body.find("sharded f"), std::string::npos) << shard->body;

  Result<WireResponse> after = client->Query(kVpctSql);
  ASSERT_TRUE(after.ok() && after->status.ok());
  EXPECT_EQ(after->body, before->body);

  Result<WireResponse> show = client->Call(RequestVerb::kShow, "");
  ASSERT_TRUE(show.ok() && show->status.ok());
  EXPECT_NE(show->body.find("dist: 2 workers"), std::string::npos)
      << show->body;

  Result<WireResponse> ins =
      client->Query("INSERT INTO f VALUES (1, 1, 1, 1, 2020, 1, 1, 1, 1, 1, "
                    "1, 1, 1.0, 1.0)");
  ASSERT_TRUE(ins.ok());
  EXPECT_FALSE(ins->status.ok());
  EXPECT_NE(ins->status.ToString().find("read-only"), std::string::npos);
}

// --- One database, one gate: the shards are a partial source ----------------

// A reload ends the sharding: neither the old shards nor a cache entry
// filled from them answers afterwards, and the table can be sharded again.
TEST(DistTest, ReloadEndsShardingAndReshardWorks) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(1000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  const std::string sql = "SELECT count(*) AS n FROM f";
  QueryOptions cached;
  cached.use_summary_cache = true;
  Result<Table> first = cluster.db().Query(sql, cached);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(FormatCsv(*first), "n\n1000\n");

  ASSERT_TRUE(
      cluster.db().ReplaceTable("f", GenerateTransactionLine(2000)).ok());
  EXPECT_EQ(cluster.db().Sharding("f"), nullptr);
  Result<Table> reloaded = cluster.db().Query(sql, cached);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(FormatCsv(*reloaded), "n\n2000\n");

  Status reshard = cluster.coordinator().ShardTable("f", "cityId");
  ASSERT_TRUE(reshard.ok()) << reshard.ToString();
  obs::QueryTrace trace;
  QueryOptions traced;
  traced.trace = &trace;
  Result<Table> resharded = cluster.db().Query(sql, traced);
  ASSERT_TRUE(resharded.ok()) << resharded.status().ToString();
  EXPECT_EQ(FormatCsv(*resharded), "n\n2000\n");
  EXPECT_EQ(trace.strategy, "partial from shards");
}

// CREATE TABLE AS over a sharded table materializes what the SELECT returns,
// read from the shards, not the zero-row stub.
TEST(DistTest, CreateTableAsReadsTheShards) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(3000)).ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());
  int port = cluster.StartCoordinatorServer();
  Result<PctClient> client = PctClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const std::string select =
      "SELECT stateId, sum(itemQty) AS s FROM f GROUP BY stateId";
  Result<WireResponse> want = client->Query(select + " ORDER BY stateId");
  ASSERT_TRUE(want.ok() && want->status.ok());
  ASSERT_GT(want->rows, 0u);
  Result<WireResponse> ctas = client->Query("CREATE TABLE g AS " + select);
  ASSERT_TRUE(ctas.ok()) << ctas.status().ToString();
  ASSERT_TRUE(ctas->status.ok()) << ctas->status.ToString();
  Result<WireResponse> got =
      client->Query("SELECT stateId, s FROM g ORDER BY stateId");
  ASSERT_TRUE(got.ok() && got->status.ok());
  EXPECT_EQ(got->rows, want->rows);
  EXPECT_EQ(got->body, want->body);
}

// A coordinator admits each statement once, as any server does.
TEST(DistTest, CoordinatorAdmitsEachStatementOnce) {
  Cluster cluster(2);
  ASSERT_TRUE(cluster.db().CreateTable("g", NullableFact(2, 100)).ok());
  int port = cluster.StartCoordinatorServer();
  Result<PctClient> client = PctClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const uint64_t before = cluster.server().executor().executed();
  Result<WireResponse> r = client->Query("SELECT g, sum(v) AS s FROM g GROUP BY g");
  ASSERT_TRUE(r.ok() && r->status.ok());
  EXPECT_EQ(cluster.server().executor().executed(), before + 1);
}

// Only the partial path touches a sharded table: a statement without one
// gets the typed distributed error, a forced paper plan runs on the partial
// path instead, and no script ever reads the stub.
TEST(DistTest, ShardedTableNeverAnswersFromTheStub) {
  Cluster cluster(2);
  ASSERT_TRUE(
      cluster.db().CreateTable("f", GenerateTransactionLine(4000)).ok());
  int port = cluster.StartCoordinatorServer();
  Result<PctClient> client = PctClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<WireResponse> local = client->Query(kVpctSql);
  ASSERT_TRUE(local.ok() && local->status.ok());
  ASSERT_TRUE(cluster.coordinator().ShardTable("f", "cityId").ok());

  for (const char* sql :
       {"SELECT stateId, itemQty FROM f WHERE stateId = 1",
        "SELECT stateId, sum(itemQty) OVER (PARTITION BY stateId) AS w "
        "FROM f"}) {
    Result<WireResponse> r = client->Query(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status.code(), StatusCode::kInvalidArgument) << sql;
    EXPECT_EQ(r->status.message().rfind("distributed: ", 0), 0u)
        << r->status.ToString();
    EXPECT_NE(r->status.message().find("(table 'f' is sharded)"),
              std::string::npos)
        << r->status.ToString();
  }

  Result<WireResponse> olap = client->Call(RequestVerb::kOlap, kVpctSql);
  ASSERT_TRUE(olap.ok() && olap->status.ok());
  EXPECT_EQ(olap->body, local->body);
  Result<WireResponse> set = client->Call(RequestVerb::kSet, "vpct update");
  ASSERT_TRUE(set.ok() && set->status.ok());
  Result<WireResponse> update = client->Query(kVpctSql);
  ASSERT_TRUE(update.ok() && update->status.ok());
  EXPECT_EQ(update->body, local->body);

  // The forced-strategy shorthand is Query with the option set, so it
  // answers from the shards as the wire's SET vpct does.
  Result<Table> forced = cluster.db().QueryVpct(kVpctSql, VpctStrategy{});
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  Result<Table> unforced = cluster.db().Query(kVpctSql);
  ASSERT_TRUE(unforced.ok()) << unforced.status().ToString();
  EXPECT_EQ(FormatCsv(*forced), FormatCsv(*unforced));
}

// A coordinator that persists its tables refuses SHARD before a row leaves:
// its checkpoint would write the zero-row stub, and a restart would answer
// count(*) = 0 from it.
TEST(DistTest, CoordinatorWithStorageRefusesShard) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("pctagg_dist_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    Cluster cluster(2);
    storage::StorageOptions options;
    options.data_dir = dir.string();
    ASSERT_TRUE(cluster.db().OpenStorage(options).ok());
    ASSERT_TRUE(
        cluster.db().CreateTable("f", GenerateTransactionLine(1000)).ok());
    Status st = cluster.coordinator().ShardTable("f", "cityId");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("--data-dir"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(cluster.db().Sharding("f"), nullptr);
    EXPECT_EQ(LocalCsv(&cluster.db(), "SELECT count(*) AS n FROM f"),
              "n\n1000\n");
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_FALSE(cluster.worker_db(i).catalog().HasTable("f"));
    }
  }
  std::filesystem::remove_all(dir);
}

// --- Client retry (satellite: bounded backoff reconnect) --------------------

TEST(ClientRetryTest, ConnectBackoffGivesUpWithTypedError) {
  // Port 1 on loopback: nothing listens there; every attempt is refused.
  ConnectOptions options;
  options.attempts = 2;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 10;
  options.attempt_timeout_ms = 200;
  Result<PctClient> client = PctClient::Connect("127.0.0.1", 1, options);
  ASSERT_FALSE(client.ok());
}

TEST(ClientRetryTest, CallWithRetrySurvivesServerRestart) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", NullableFact(3, 200)).ok());
  ServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  auto server = std::make_unique<PctServer>(&db, config);
  ASSERT_TRUE(server->Start().ok());
  int port = server->port();

  ConnectOptions options;
  options.attempts = 4;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 50;
  options.attempt_timeout_ms = 1000;
  Result<PctClient> client = PctClient::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string sql = "SELECT count(*) AS n FROM f";
  Result<WireResponse> first = client->Query(sql);
  ASSERT_TRUE(first.ok() && first->status.ok());

  // Bounce the server on the same port; the client's next retried call must
  // re-dial (with backoff) and succeed without the caller doing anything.
  server->Stop();
  server = std::make_unique<PctServer>(&db, config);
  // SO_REUSEADDR lets the new listener claim the port immediately, but give
  // the bind a few tries in case the old fd is still draining.
  ServerConfig retry_config = config;
  retry_config.port = port;
  for (int i = 0; i < 50; ++i) {
    server = std::make_unique<PctServer>(&db, retry_config);
    if (server->Start().ok()) break;
    usleep(20 * 1000);
  }
  ASSERT_EQ(server->port(), port);

  int retries = 0;
  Result<WireResponse> again =
      client->CallWithRetry(RequestVerb::kQuery, sql, 4, &retries);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again->status.ok()) << again->status.ToString();
  EXPECT_EQ(again->body, first->body);
  EXPECT_GE(retries, 1);
}

// --- Partial-lattice follow-on: cache-ancestor rollup (satellite) -----------

// A plain GROUP BY subsumed by a cached mergeable summary answers by rolling
// up from the cache — same machinery the coordinator uses across processes,
// applied to the local summary cache. INT64 measures make it bit-exact.
TEST(CacheAncestorTest, SubsumedGroupByAnswersFromCachedSummary) {
  Table fact(Schema({{"d1", DataType::kInt64},
                     {"d2", DataType::kInt64},
                     {"v", DataType::kInt64}}));
  Rng rng(11);
  for (size_t i = 0; i < 3000; ++i) {
    fact.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(4))),
                    Value::Int64(static_cast<int64_t>(rng.Uniform(6))),
                    Value::Int64(static_cast<int64_t>(rng.Uniform(50)))});
  }

  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", fact).ok());
  // Fill the cache with the (d1, d2) mergeable summary.
  ASSERT_TRUE(db.Query("SELECT d1, d2, Vpct(v BY d2) AS pct FROM f "
                       "GROUP BY d1, d2 ORDER BY d1, d2")
                  .ok());
  ASSERT_GE(db.summaries().size(), 1u);

  const std::string sql =
      "SELECT d1, sum(v) AS s FROM f GROUP BY d1 ORDER BY d1";
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> got = db.Query(sql, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(trace.strategy, "partial from cached ancestor");
  EXPECT_EQ(trace.strategy_source, "cache");

  PctDatabase fresh;
  ASSERT_TRUE(fresh.CreateTable("f", fact).ok());
  Result<Table> want = fresh.Query(sql);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(FormatCsv(*got), FormatCsv(*want));

  // A WHERE clause disqualifies the rollup: the cached summary has already
  // aggregated the rows away. The query still answers, directly.
  obs::QueryTrace filtered_trace;
  options.trace = &filtered_trace;
  Result<Table> filtered = db.Query(
      "SELECT d1, sum(v) AS s FROM f WHERE d2 = 1 GROUP BY d1 ORDER BY d1",
      options);
  ASSERT_TRUE(filtered.ok());
  EXPECT_NE(filtered_trace.strategy, "partial from cached ancestor");
}

}  // namespace
}  // namespace pctagg
