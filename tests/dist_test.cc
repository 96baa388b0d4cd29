// Multi-process-shaped integration tests for the scatter/gather coordinator
// (docs/SHARDING.md): real PctServer workers on loopback ephemeral ports, a
// dist::Coordinator scattering over persistent PctClient links, and the
// merge-on-arrival gather. Everything runs in-process so ctest needs no
// orchestration, but every byte between coordinator and worker crosses a
// TCP socket exactly as it would across machines.

#include <gtest/gtest.h>

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
// tests drive the router directly to get Tables back for comparison.
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

  // Runs `sql` through the router; the table must already be sharded.
  Result<Table> Distributed(const std::string& sql, size_t dop = 1,
                            obs::QueryTrace* trace = nullptr) {
    QueryOptions options;
    options.degree_of_parallelism = dop;
    Result<std::optional<Table>> r =
        coordinator_->MaybeExecute(sql, options, trace);
    if (!r.ok()) return r.status();
    if (!r->has_value()) {
      return Status::Internal("router declined: " + sql);
    }
    return std::move(**r);
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

// Hpct pivot column order is first-seen and merge-on-arrival makes
// first-seen nondeterministic, so horizontal results are compared cell by
// cell through column-name lookup instead of whole-CSV equality.
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

  QueryOptions options;
  Result<std::optional<Table>> ins = cluster.coordinator().MaybeExecute(
      "INSERT INTO f VALUES (1, 1, 1, 1, 2020, 1, 1, 1, 1, 1, 1, 1, 1.0, "
      "1.0)",
      options, nullptr);
  ASSERT_FALSE(ins.ok());
  EXPECT_EQ(ins.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ins.status().message().find("read-only"), std::string::npos);

  Status reshard = cluster.coordinator().ShardTable("f", "stateId");
  ASSERT_FALSE(reshard.ok());
  EXPECT_NE(reshard.message().find("already sharded"), std::string::npos);

  // Statements on unsharded tables are declined, not hijacked.
  ASSERT_TRUE(cluster.db().CreateTable("g", NullableFact(1, 10)).ok());
  Result<std::optional<Table>> other = cluster.coordinator().MaybeExecute(
      "SELECT g, sum(v) FROM g GROUP BY g", options, nullptr);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->has_value());
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

  QueryOptions options;
  Result<std::optional<Table>> drop =
      cluster.coordinator().MaybeExecute("DROP TABLE f", options, nullptr);
  ASSERT_TRUE(drop.ok()) << drop.status().ToString();
  ASSERT_TRUE(drop->has_value());
  EXPECT_EQ((*drop)->column(0).GetValue(0), Value::Int64(1));

  EXPECT_FALSE(cluster.coordinator().Routes("f"));
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
  EXPECT_NE(text.find("distributed scatter/gather"), std::string::npos)
      << text;
  EXPECT_NE(text.find("shard 0"), std::string::npos) << text;
  EXPECT_NE(text.find("shard 1"), std::string::npos) << text;
  EXPECT_NE(text.find("gather-merge"), std::string::npos) << text;
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
  EXPECT_EQ(trace.strategy, "cache-ancestor");
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
  EXPECT_NE(filtered_trace.strategy, "cache-ancestor");
}

}  // namespace
}  // namespace pctagg
