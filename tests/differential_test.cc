// Cross-evaluator differential test: a fixed-seed generator produces ~200
// percentage and aggregate queries (Vpct with one or two terms, Hpct/Hagg
// with and without extras, plain aggregates, CUBE/ROLLUP, optional WHERE,
// HAVING, ORDER BY and LIMIT) over INT64 measures with NULL keys, a
// dictionary-string key and an all-zero group, plus an empty fact. Every
// query must give the same answer from
//   * PctDatabase::QueryPartial (the partial path, the reference),
//     PctDatabase::Query with the advisor, and the materialized plan the
//     advisor picks at that dop, forced (the paper's plans, where the shape
//     has one),
//   * the OLAP-window baseline, for every Vpct without grouping sets,
//   * the partial path on a cache-on database, twice: first rolled up from a
//     warmed finest-level cached ancestor, then from the query's own exact
//     entry,
//   * in-process clusters of one, two and four shards, whose gather
//     concatenates the shards' partials and rolls them up once, each query
//     through the coordinator database's Query, and
//   * the summary cache in front of the two-shard cluster, for every
//     unfiltered query twice: first filled from the shards (or from what an
//     earlier query left), then from the entry the first run filled,
// at dop 1 and 4. Shards emit groups, and first-seen Hpct pivot columns, in
// shard order, so answers compare as row multisets with columns matched by
// name.
//
// A second test reaches MQO batches the way the server does: every group of
// batch-compatible queries goes through QueryExecutor::ExecuteStatement
// under SET mqo on, concurrently, locally and on the two-shard cluster, and
// each member must be answered from its batch's union table with the partial
// path's answer.
//
// A third test checks the delta merge, the other caller of that rollup:
// every query fills its cache entries, a seeded batch (NULL keys, a new
// dictionary string) is appended with AppendPolicy::kMerge, and the re-run
// answered from the merged entries must equal the partial path on a fresh
// database holding f and the batch.
//
// A fourth test checks that plain EXPLAIN prints the plan that runs: the
// same strategy line and the same top-level steps as EXPLAIN ANALYZE, under
// the advisor and under every strategy a session can force; for a member of
// a batch, the same steps after the batch's; and with the cache on, locally
// and on two shards, the same steps with the source answered by the exact
// entry (marked cache=hit) or replaced by a cached ancestor's rollup.
//
// FLOAT64 measures are left out: at dop 4 the fused scan's float sums still
// depend on morsel scheduling (ROADMAP, deterministic floats).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/advisor.h"
#include "core/database.h"
#include "core/mqo_plan.h"
#include "core/partial_plan.h"
#include "core/plan.h"
#include "dist/coordinator.h"
#include "engine/table_ops.h"
#include "obs/trace.h"
#include "server/executor.h"
#include "server/server.h"

namespace pctagg {
namespace {

constexpr size_t kRows = 6000;
constexpr size_t kDops[] = {1, 4};

// f(d1, d2, d3, s, m1, m2): d2 has ~10% NULL keys, s is a dictionary string,
// m1 has ~8% NULL measures, and m2 is 0 on every d1 = 3 row (an all-zero
// group: its Vpct denominators are zero, so its percentages are NULL).
// `novel` swaps one of s's three strings for one f's dictionary lacks.
Table Fact(size_t n, uint64_t seed, bool novel = false) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"d3", DataType::kInt64},
                  {"s", DataType::kString},
                  {"m1", DataType::kInt64},
                  {"m2", DataType::kInt64}}));
  const char* const names[] = {"alpha", novel ? "delta" : "beta", "gamma"};
  for (size_t i = 0; i < n; ++i) {
    const int64_t d1 = static_cast<int64_t>(rng.Uniform(4));
    Value d2 = rng.Uniform(10) == 0
                   ? Value::Null()
                   : Value::Int64(static_cast<int64_t>(rng.Uniform(5)));
    Value m1 = rng.Uniform(12) == 0 ? Value::Null()
                                    : Value::Int64(rng.UniformRange(1, 100));
    t.AppendRow({Value::Int64(d1), d2,
                 Value::Int64(static_cast<int64_t>(rng.Uniform(3))),
                 Value::String(names[rng.Uniform(3)]), m1,
                 Value::Int64(d1 == 3 ? 0 : rng.UniformRange(0, 50))});
  }
  return t;
}

// --- Query generator ---------------------------------------------------------

const char* const kDims[] = {"d1", "d2", "d3", "s"};
const char* const kMeasures[] = {"m1", "m2"};
const char* const kWheres[] = {"",         "",         "",
                               " WHERE d1 <> 2", " WHERE m2 > 10",
                               " WHERE s <> 'beta'", " WHERE d3 = 99"};

class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  // One random statement of a random shape.
  std::string Next() {
    switch (rng_.Uniform(4)) {
      case 0:
        return Vpct();
      case 1:
        return Horizontal();
      case 2:
        return Plain();
      default:
        return Lattice();
    }
  }

 private:
  bool Coin() { return rng_.Uniform(2) == 0; }
  const char* Measure() { return kMeasures[rng_.Uniform(2)]; }

  // `min`..`max` distinct dimensions in random order.
  std::vector<std::string> Dims(size_t min, size_t max,
                                const std::vector<std::string>& avoid = {}) {
    std::vector<std::string> pool;
    for (const char* d : kDims) {
      if (std::find(avoid.begin(), avoid.end(), d) == avoid.end()) {
        pool.push_back(d);
      }
    }
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng_.Uniform(i)]);
    }
    const size_t n = min + rng_.Uniform(max - min + 1);
    pool.resize(std::min(n, pool.size()));
    return pool;
  }

  // A random subset of `cols`, in their order.
  std::vector<std::string> Subset(const std::vector<std::string>& cols) {
    std::vector<std::string> out;
    for (const std::string& c : cols) {
      if (Coin()) out.push_back(c);
    }
    return out;
  }

  // Extra plain aggregates x1.., plus count(*) AS n when `with_n`.
  std::vector<std::string> Extras(size_t max, bool with_n) {
    const char* const funcs[] = {"sum", "count", "avg", "min", "max"};
    std::vector<std::string> out;
    const size_t k = rng_.Uniform(max + 1);
    for (size_t i = 0; i < k; ++i) {
      out.push_back(StrFormat("%s(%s) AS x%zu", funcs[rng_.Uniform(5)],
                              Measure(), i + 1));
    }
    if (with_n) out.push_back("count(*) AS n");
    return out;
  }

  // WHERE, then GROUP BY `group`, then HAVING over n and ORDER BY/LIMIT
  // over every group column (a total order, so LIMIT keeps the same rows
  // on every evaluator).
  std::string Finish(const std::string& select, const std::string& group_by,
                     const std::vector<std::string>& order, bool with_n,
                     bool limit_ok) {
    std::string sql = "SELECT " + select + " FROM f" +
                      kWheres[rng_.Uniform(std::size(kWheres))];
    if (!group_by.empty()) sql += " GROUP BY " + group_by;
    if (with_n && Coin()) sql += " HAVING n > 40";
    if (!order.empty() && Coin()) {
      sql += " ORDER BY " + Join(order, ", ");
      if (limit_ok && Coin()) sql += " LIMIT 5";
    }
    return sql;
  }

  std::string Vpct() {
    const std::vector<std::string> group = Dims(1, 3);
    std::vector<std::string> items = group;
    const size_t terms = 1 + rng_.Uniform(2);
    for (size_t i = 0; i < terms; ++i) {
      const std::vector<std::string> by = Subset(group);
      items.push_back(StrFormat(
          "Vpct(%s%s) AS p%zu", Measure(),
          by.empty() ? "" : (" BY " + Join(by, ", ")).c_str(), i + 1));
    }
    const bool with_n = Coin();
    for (const std::string& e : Extras(2, with_n)) items.push_back(e);
    return Finish(Join(items, ", "), Join(group, ", "), group, with_n, true);
  }

  std::string Horizontal() {
    const std::vector<std::string> group = Dims(0, 2);
    const std::vector<std::string> by = Dims(1, 2, group);
    std::vector<std::string> items = group;
    const std::string cols = Join(by, ", ");
    switch (rng_.Uniform(3)) {
      case 0:
        items.push_back(StrFormat("Hpct(%s BY %s)", Measure(), cols.c_str()));
        break;
      case 1: {
        const char* const funcs[] = {"sum", "count", "min", "max"};
        items.push_back(StrFormat("%s(%s BY %s%s)", funcs[rng_.Uniform(4)],
                                  Measure(), cols.c_str(),
                                  Coin() ? " DEFAULT 0" : ""));
        break;
      }
      default:
        items.push_back(StrFormat("sum(%s BY %s DEFAULT 0)", Measure(),
                                  cols.c_str()));
    }
    for (const std::string& e : Extras(2, false)) items.push_back(e);
    return Finish(Join(items, ", "), Join(group, ", "), group, false, true);
  }

  std::string Plain() {
    const std::vector<std::string> group = Dims(0, 3);
    std::vector<std::string> items = group;
    const bool with_n = Coin();
    std::vector<std::string> aggs = Extras(3, with_n);
    if (aggs.empty()) aggs.push_back("sum(m1) AS x1");
    for (const std::string& e : aggs) items.push_back(e);
    return Finish(Join(items, ", "), Join(group, ", "), group, with_n, true);
  }

  std::string Lattice() {
    const std::vector<std::string> cols = Dims(1, 3);
    const std::string kind = Coin() ? "CUBE" : "ROLLUP";
    std::vector<std::string> items = cols;
    bool with_n = false;
    switch (rng_.Uniform(3)) {
      case 0: {
        const std::vector<std::string> by = Subset(cols);
        items.push_back(StrFormat(
            "Vpct(%s%s) AS p1", Measure(),
            by.empty() ? "" : (" BY " + Join(by, ", ")).c_str()));
        items.push_back("sum(m2) AS x9");
        break;
      }
      case 1:
        with_n = Coin();
        for (const std::string& e : Extras(3, with_n)) items.push_back(e);
        items.push_back("GROUPING(" + cols[0] + ") AS g");
        break;
      default: {
        const std::vector<std::string> by = Dims(1, 1, cols);
        items.push_back(StrFormat("Hpct(%s BY %s)", Measure(), by[0].c_str()));
        if (Coin()) items.push_back("count(*) AS n");
      }
    }
    // No LIMIT: rows of different levels can tie on the visible columns.
    return Finish(Join(items, ", "), kind + "(" + Join(cols, ", ") + ")",
                  cols, with_n, false);
  }

  Rng rng_;
};

// --- Canonical answers -------------------------------------------------------

std::string Cell(const Column& c, size_t row) {
  if (c.IsNull(row)) return "NULL";
  switch (c.type()) {
    case DataType::kInt64:
      return std::to_string(c.Int64At(row));
    case DataType::kString:
      return "'" + c.StringAt(row) + "'";
    case DataType::kFloat64:
      break;
  }
  uint64_t bits;
  const double d = c.Float64At(row);
  std::memcpy(&bits, &d, sizeof(bits));
  return StrFormat("%.17g/%016llx", d, static_cast<unsigned long long>(bits));
}

// An answer as its column names (sorted) and its rows with cells in that
// column order (sorted): equal iff the tables hold the same rows, whatever
// the row and column order.
struct Canonical {
  std::vector<std::string> columns;
  std::vector<std::string> rows;
  bool operator==(const Canonical& o) const {
    return columns == o.columns && rows == o.rows;
  }
};

Canonical Canonicalize(const Table& t) {
  Canonical out;
  std::vector<std::pair<std::string, size_t>> cols;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnDef& def = t.schema().column(c);
    cols.push_back({def.name + ":" + DataTypeName(def.type), c});
  }
  std::sort(cols.begin(), cols.end());
  for (const auto& col : cols) out.columns.push_back(col.first);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (const auto& col : cols) row += Cell(t.column(col.second), r) + "|";
    out.rows.push_back(std::move(row));
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

// The columns, then the rows of `c` that `other` lacks (at most 8).
std::string Describe(const Canonical& c, const Canonical& other) {
  std::string out = Join(c.columns, ", ") + StrFormat(" (%zu rows)\n",
                                                      c.rows.size());
  std::vector<std::string> only;
  std::set_difference(c.rows.begin(), c.rows.end(), other.rows.begin(),
                      other.rows.end(), std::back_inserter(only));
  for (size_t i = 0; i < only.size() && i < 8; ++i) {
    out += "  " + only[i] + "\n";
  }
  return out;
}

// The shapes the fused horizontal pipeline used to refuse, and other edges
// the generator reaches only by luck.
const char* const kEdgeQueries[] = {
    "SELECT Hpct(m1 BY d2) FROM f WHERE d3 = 99",
    "SELECT Hpct(m1 BY d2) FROM e",
    "SELECT d1, Hpct(m1 BY d2), sum(m2) AS x1 FROM e GROUP BY d1",
    "SELECT Hpct(m1 BY d2), sum(m2) AS x1, avg(m1) AS x2 FROM f",
    "SELECT Hpct(m1 BY s), count(*) AS n FROM f WHERE d1 <> 2",
    "SELECT d1, Vpct(m2 BY d1) AS p1, sum(m2) AS x1 FROM f GROUP BY d1",
    "SELECT d1, d2, Vpct(m1) AS p1 FROM e GROUP BY d1, d2",
    "SELECT sum(m1) AS x1, count(*) AS n, min(m2) AS x2 FROM e",
    "SELECT d1, sum(m1) AS x1, count(m1) AS x2 FROM e GROUP BY CUBE(d1)",
    "SELECT s, d2, Vpct(m1 BY d2) AS p1 FROM f GROUP BY ROLLUP(s, d2)",
};

// --- Fixture -----------------------------------------------------------------

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Table fact = Fact(kRows, 20261017);
    const Table empty(fact.schema());
    ASSERT_TRUE(db_.CreateTable("f", fact).ok());
    ASSERT_TRUE(db_.CreateTable("e", empty).ok());

    for (size_t shards : kShardCounts) {
      clusters_.push_back(std::make_unique<Cluster>());
      Cluster& c = *clusters_.back();
      std::vector<dist::WorkerEndpoint> endpoints;
      for (size_t i = 0; i < shards; ++i) {
        c.worker_dbs.push_back(std::make_unique<PctDatabase>());
        ServerConfig config;
        config.port = 0;
        config.worker_threads = 2;
        c.workers.push_back(
            std::make_unique<PctServer>(c.worker_dbs.back().get(), config));
        ASSERT_TRUE(c.workers.back()->Start().ok());
        endpoints.push_back({"127.0.0.1", c.workers.back()->port()});
      }
      dist::CoordinatorConfig config;
      config.shard_timeout_ms = 10000;
      config.shard_attempts = 2;
      c.coordinator =
          std::make_unique<dist::Coordinator>(&c.db, endpoints, config);
      ASSERT_TRUE(c.db.CreateTable("f", fact).ok());
      ASSERT_TRUE(c.db.CreateTable("e", empty).ok());
      ASSERT_TRUE(c.coordinator->ShardTable("f", "d2").ok());
      ASSERT_TRUE(c.coordinator->ShardTable("e", "d1").ok());
    }

    QueryGen gen(17);
    sqls_.assign(std::begin(kEdgeQueries), std::end(kEdgeQueries));
    while (sqls_.size() < 200) {
      std::string sql = gen.Next();
      // The generator may compose a statement the analyzer rejects (e.g.
      // two Vpct terms with the same BY list); those are not evaluator
      // questions.
      if (db_.PrepareQuery(sql).ok()) sqls_.push_back(std::move(sql));
    }
  }

  static QueryOptions AtDop(size_t dop) {
    QueryOptions options;
    options.degree_of_parallelism = dop;
    return options;
  }

  // The materialized plan the advisor picks for `q` at `dop`, forced.
  Result<Table> Materialized(const std::string& sql, const AnalyzedQuery& q,
                             size_t dop) const {
    QueryOptions options = AtDop(dop);
    PCTAGG_ASSIGN_OR_RETURN(PlannerStats stats,
                            db_.PlannerStatistics(q.table_name));
    if (q.query_class == QueryClass::kVpct) {
      options.vpct_strategy = StrategyAdvisor().AdviseVpct(stats, q, dop);
    } else {
      options.horizontal_strategy =
          StrategyAdvisor().AdviseHorizontal(stats, q, dop);
    }
    return db_.Query(sql, options);
  }

  Result<Table> Olap(const std::string& sql, size_t dop) const {
    QueryOptions options = AtDop(dop);
    options.olap_baseline = true;
    return db_.Query(sql, options);
  }

  // `sql` on the cluster of kShardCounts[cluster] shards.
  Result<Table> Sharded(const std::string& sql, size_t dop,
                        size_t cluster = 1) const {
    return clusters_[cluster]->db.Query(sql, AtDop(dop));
  }

  // A coordinator database over its own in-process worker servers.
  struct Cluster {
    PctDatabase db;
    std::vector<std::unique_ptr<PctDatabase>> worker_dbs;
    std::vector<std::unique_ptr<PctServer>> workers;
    std::unique_ptr<dist::Coordinator> coordinator;
  };

  static constexpr size_t kShardCounts[] = {1, 2, 4};

  PctDatabase db_;
  std::vector<std::unique_ptr<Cluster>> clusters_;  // one per kShardCounts
  std::vector<std::string> sqls_;
};

// Every unfiltered query's finest level and partials are a subset of this
// plain GROUP BY's, so a cache holding it answers them by rollup.
constexpr char kWarmFinest[] =
    "SELECT d1, d2, d3, s, sum(m1) AS a1, count(m1) AS a2, min(m1) AS a3, "
    "max(m1) AS a4, sum(m2) AS b1, count(m2) AS b2, min(m2) AS b3, "
    "max(m2) AS b4, count(*) AS n FROM %s GROUP BY d1, d2, d3, s";

TEST_F(DifferentialTest, EveryEvaluatorGivesTheSameAnswer) {
  const std::vector<std::string>& sqls = sqls_;
  size_t compared = 0;
  for (size_t dop : kDops) {
    // A cache-on database holding only the warmed finest levels.
    PctDatabase cached;
    cached.EnableSummaryCache(true);
    for (const char* table : {"f", "e"}) {
      ASSERT_TRUE(cached
                      .CreateTable(table,
                                   **db_.catalog().GetTable(table))
                      .ok());
      ASSERT_TRUE(
          cached.QueryPartial(StrFormat(kWarmFinest, table), AtDop(dop)).ok());
    }

    // The partial path's answers at this dop, the reference for the rest.
    std::vector<Canonical> want(sqls.size());
    for (size_t i = 0; i < sqls.size(); ++i) {
      SCOPED_TRACE(sqls[i] + " @ dop=" + std::to_string(dop));
      Result<AnalyzedQuery> q = db_.PrepareQuery(sqls[i]);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      Result<Table> fused = db_.QueryPartial(sqls[i], AtDop(dop));
      ASSERT_TRUE(fused.ok()) << fused.status().ToString();
      want[i] = Canonicalize(*fused);

      std::vector<std::pair<const char*, Result<Table>>> others;
      others.emplace_back("advisor", db_.Query(sqls[i], AtDop(dop)));
      const bool has_plan = !q->has_grouping_sets &&
                            (q->query_class == QueryClass::kVpct ||
                             q->query_class == QueryClass::kHorizontal);
      if (has_plan) {
        others.emplace_back("materialized", Materialized(sqls[i], *q, dop));
      }
      if (has_plan && q->query_class == QueryClass::kVpct) {
        others.emplace_back("OLAP window", Olap(sqls[i], dop));
      }
      // Only unfiltered queries read the cache: the first run from the
      // warmed ancestor (or an exact entry an earlier query left), the
      // second from the entry the first run filled.
      const size_t hits_before = cached.summaries().hits();
      others.emplace_back("cached ancestor",
                          cached.QueryPartial(sqls[i], AtDop(dop)));
      const size_t hits_between = cached.summaries().hits();
      others.emplace_back("cache entry",
                          cached.QueryPartial(sqls[i], AtDop(dop)));
      if (q->where == nullptr) {
        EXPECT_GT(hits_between, hits_before) << "no cache read";
        EXPECT_GT(cached.summaries().hits(), hits_between) << "no cache read";
      }
      std::vector<std::string> names;
      names.reserve(std::size(kShardCounts));  // others keeps c_str()s
      for (size_t c = 0; c < std::size(kShardCounts); ++c) {
        names.push_back(StrFormat("%zu shards", kShardCounts[c]));
        others.emplace_back(names.back().c_str(), Sharded(sqls[i], dop, c));
      }
      if (q->where == nullptr) {
        PctDatabase& cluster = clusters_[1]->db;
        QueryOptions cache_on = AtDop(dop);
        cache_on.use_summary_cache = true;
        others.emplace_back("2 shards, cache fill",
                            cluster.Query(sqls[i], cache_on));
        const size_t hits = cluster.summaries().hits();
        others.emplace_back("2 shards, cache entry",
                            cluster.Query(sqls[i], cache_on));
        EXPECT_GT(cluster.summaries().hits(), hits) << "no cache read";
      }
      for (auto& [name, got] : others) {
        ASSERT_TRUE(got.ok()) << name << ": " << got.status().ToString();
        const Canonical c = Canonicalize(*got);
        EXPECT_TRUE(c == want[i]) << name << " differs from the partial path\n"
                                  << Describe(c, want[i]) << "vs\n"
                                  << Describe(want[i], c);
        ++compared;
      }
    }
  }
  // 200 queries x 2 dops x (advisor, 2 cache runs, 3 clusters), plus the 93
  // unfiltered ones x 2 dops x 2 cached runs on 2 shards, at least.
  EXPECT_GE(compared, 2772u);
}

// Each group of batch-compatible queries goes through the server's read path,
// QueryExecutor::ExecuteStatement under SET mqo on and SET trace on, in
// chunks of at most 8 concurrent members, locally and on the two-shard
// cluster (whose leader reads the union level with one scatter). Every reply
// must equal the partial path; every chunk of two or more over a table with
// rows must form one batch, and each of its members must be answered from
// the batch's union table.
TEST_F(DifferentialTest, ExecutorBatchesGiveTheSameAnswer) {
  constexpr size_t kChunk = 8;
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < sqls_.size(); ++i) {
    groups[MqoCompatibilityKey(*db_.PrepareQuery(sqls_[i]))].push_back(i);
  }
  size_t compared = 0;
  for (size_t dop : kDops) {
    std::vector<Canonical> want(sqls_.size());
    for (size_t i = 0; i < sqls_.size(); ++i) {
      Result<Table> fused = db_.QueryPartial(sqls_[i], AtDop(dop));
      ASSERT_TRUE(fused.ok()) << sqls_[i] << ": " << fused.status().ToString();
      want[i] = Canonicalize(*fused);
    }
    for (PctDatabase* db : {&db_, &clusters_[1]->db}) {
      for (const auto& [key, members] : groups) {
        // The gate sends a read of an empty table straight to its plan.
        Result<PlannerStats> stats =
            db->PlannerStatistics(db->PrepareQuery(sqls_[members[0]])
                                      ->table_name);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        for (size_t begin = 0; begin < members.size(); begin += kChunk) {
          const std::vector<size_t> chunk(
              members.begin() + begin,
              members.begin() + std::min(members.size(), begin + kChunk));
          SCOPED_TRACE(StrFormat("batch %s%s, members %zu..%zu @ dop=%zu",
                                 key.c_str(),
                                 db == &db_ ? "" : " on 2 shards", begin,
                                 begin + chunk.size() - 1, dop));
          ExecutorConfig config;
          config.worker_threads = kChunk;
          config.mqo_window_ms = 10000;  // max_batch closes the batch
          config.mqo_max_batch = chunk.size();
          QueryExecutor executor(db, config);
          std::vector<Result<Table>> got(chunk.size(), Result<Table>(Table()));
          std::vector<std::shared_ptr<obs::QueryTrace>> traces;
          for (size_t m = 0; m < chunk.size(); ++m) {
            traces.push_back(std::make_shared<obs::QueryTrace>());
          }
          std::vector<std::thread> threads;
          for (size_t m = 0; m < chunk.size(); ++m) {
            threads.emplace_back([&, m] {
              QueryOptions options = AtDop(dop);
              options.mqo = MqoMode::kOn;
              got[m] = executor.ExecuteStatement(sqls_[chunk[m]], options, 0,
                                                 traces[m]);
            });
          }
          for (std::thread& t : threads) t.join();
          const bool batched = chunk.size() >= 2 && stats->rows() > 0;
          EXPECT_EQ(executor.mqo_gate().queries_batched(),
                    batched ? chunk.size() : 0u);
          for (size_t m = 0; m < chunk.size(); ++m) {
            const std::string& sql = sqls_[chunk[m]];
            ASSERT_TRUE(got[m].ok()) << sql << ": "
                                     << got[m].status().ToString();
            if (batched) {
              EXPECT_EQ(traces[m]->strategy, "partial from mqo batch")
                  << sql << "\n" << traces[m]->Render();
            }
            const Canonical c = Canonicalize(*got[m]);
            EXPECT_TRUE(c == want[chunk[m]])
                << sql << ": executor batch member differs\n"
                << Describe(c, want[chunk[m]]) << "vs\n"
                << Describe(want[chunk[m]], c);
            ++compared;
          }
        }
      }
    }
  }
  // 200 queries x 2 dops x (locally, on 2 shards).
  EXPECT_GE(compared, 800u);
}

TEST_F(DifferentialTest, DeltaMergedEntriesMatchRecompute) {
  const Table batch = Fact(700, 31, /*novel=*/true);
  Table grown = **db_.catalog().GetTable("f");
  ASSERT_TRUE(InsertInto(&grown, batch).ok());
  PctDatabase fresh;
  ASSERT_TRUE(fresh.CreateTable("f", grown).ok());
  ASSERT_TRUE(fresh.CreateTable("e", **db_.catalog().GetTable("e")).ok());

  for (size_t dop : kDops) {
    PctDatabase merged;
    merged.EnableSummaryCache(true);
    for (const char* table : {"f", "e"}) {
      ASSERT_TRUE(
          merged.CreateTable(table, **db_.catalog().GetTable(table)).ok());
    }
    for (const std::string& sql : sqls_) {
      ASSERT_TRUE(merged.QueryPartial(sql, AtDop(dop)).ok()) << sql;
    }
    QueryOptions append = AtDop(dop);
    append.append_policy = AppendPolicy::kMerge;
    Result<AppendOutcome> outcome = merged.AppendRows("f", batch, append);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_GT(outcome->summaries_merged, 0u);
    EXPECT_EQ(outcome->summaries_recomputed, 0u);

    for (const std::string& sql : sqls_) {
      SCOPED_TRACE(sql + " @ dop=" + std::to_string(dop));
      const size_t hits = merged.summaries().hits();
      Result<Table> got = merged.QueryPartial(sql, AtDop(dop));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Unfiltered statements answer from the (merged) cache entries.
      if (merged.PrepareQuery(sql)->where == nullptr) {
        EXPECT_GT(merged.summaries().hits(), hits) << "no cache read";
      }
      Result<Table> want = fresh.QueryPartial(sql, AtDop(dop));
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      const Canonical c = Canonicalize(*got);
      const Canonical w = Canonicalize(*want);
      EXPECT_TRUE(c == w) << "delta-merged entry differs from a recompute\n"
                          << Describe(c, w) << "vs\n"
                          << Describe(w, c);
    }
  }
}

// --- EXPLAIN prints the plan that runs ---------------------------------------

// One top-level step of a plan: its trace label and detail, and whether
// EXPLAIN ANALYZE marked it answered by the summary cache.
struct Step {
  std::string label;
  std::string detail;
  bool hit = false;
};

// A plan's "strategy:" line and top-level steps.
struct Listing {
  std::string strategy;
  std::vector<Step> steps;
};

std::vector<std::string> PlanLines(const Table& plan) {
  std::vector<std::string> lines;
  for (size_t r = 0; r < plan.num_rows(); ++r) {
    lines.push_back(plan.column(0).StringAt(r));
  }
  return lines;
}

// "label: detail" (or a bare label) as EXPLAIN prints a step.
Step ParseStep(const std::string& line) {
  const size_t colon = line.find(": ");
  if (colon == std::string::npos) return {line, ""};
  return {line.substr(0, colon), line.substr(colon + 2)};
}

// Plain EXPLAIN: the "-- " header, then a script's statements (labelled as
// Plan::Execute labels their trace nodes) or the partial path's and a
// projection's "label: detail" lines.
Listing FromExplain(const Table& plan) {
  Listing out;
  for (const std::string& line : PlanLines(plan)) {
    if (line.rfind("-- ", 0) == 0) {
      if (line.rfind("-- strategy: ", 0) == 0) out.strategy = line.substr(13);
      continue;
    }
    const bool script = out.strategy.rfind("partial", 0) != 0 &&
                        out.strategy.rfind("projection", 0) != 0;
    if (!script) {
      out.steps.push_back(ParseStep(line));
      continue;
    }
    const std::string sql = line.substr(0, line.size() - 1);  // the ';'
    out.steps.push_back({StatementLabel(sql), sql});
  }
  return out;
}

// EXPLAIN ANALYZE: its "strategy:" line and the plan's top-level nodes (two
// spaces deep; the stats line right after one opens with "    [").
Listing FromAnalyze(const Table& plan) {
  Listing out;
  bool in_plan = false;
  bool after_step = false;
  for (const std::string& line : PlanLines(plan)) {
    if (line.rfind("strategy: ", 0) == 0) out.strategy = line.substr(10);
    if (line == "plan:") in_plan = true;
    if (in_plan && after_step && line.rfind("    [", 0) == 0) {
      out.steps.back().hit = line.find("cache=hit") != std::string::npos;
    }
    after_step = in_plan && line.size() > 2 && line.rfind("  ", 0) == 0 &&
                 line[2] != ' ' && line[2] != '[';
    if (after_step) out.steps.push_back(ParseStep(line.substr(2)));
  }
  return out;
}

// Temp tables carry a process-unique suffix (Fk_0007), so two builds of one
// script differ only there.
std::string Unnumbered(const std::string& sql) {
  static const std::regex kTempSuffix("_[0-9]{4,}");
  return std::regex_replace(sql, kTempSuffix, "_#");
}

std::string Show(const Listing& l) {
  std::string out = "strategy: " + l.strategy + "\n";
  for (const Step& s : l.steps) out += "  " + s.label + ": " + s.detail + "\n";
  return out;
}

// The same steps in the same order: equal labels, and equal SQL for every
// statement and scan. A rollup's "from" level is the one plain EXPLAIN
// estimates smallest and EXPLAIN ANALYZE the one that was, so only the level
// it builds is compared. When the summary cache may have answered the
// source, its first step may instead be the cached-ancestor rollup that
// stood in for it.
void ExpectSameSteps(const Listing& plain, const Listing& analyzed,
                     bool cached_source = false) {
  ASSERT_EQ(plain.steps.size(), analyzed.steps.size())
      << "EXPLAIN\n" << Show(plain) << "EXPLAIN ANALYZE\n" << Show(analyzed);
  for (size_t i = 0; i < plain.steps.size(); ++i) {
    const Step& p = plain.steps[i];
    const Step& a = analyzed.steps[i];
    if (i == 0 && cached_source && a.label == "cache") {
      EXPECT_EQ(a.detail.rfind("cache-ancestor-rollup: ", 0), 0u)
          << Show(analyzed);
      continue;
    }
    EXPECT_EQ(p.label, a.label) << "step " << i;
    auto built = [](const std::string& detail) {
      return detail.rfind("lattice-rollup:", 0) == 0
                 ? detail.substr(0, detail.find(" from "))
                 : Unnumbered(detail);
    };
    EXPECT_EQ(built(p.detail), built(a.detail)) << "step " << i;
  }
}

// The same evaluator and the same steps.
void ExpectSamePlan(const Listing& plain, const Listing& analyzed) {
  EXPECT_FALSE(plain.strategy.empty());
  EXPECT_EQ(plain.strategy, analyzed.strategy);
  ExpectSameSteps(plain, analyzed);
}

// Plain EXPLAIN, then EXPLAIN ANALYZE, of `sql` on `db` under `options`.
void Explained(const PctDatabase& db, const std::string& sql,
               const QueryOptions& options, Listing* plain,
               Listing* analyzed) {
  Result<Table> p = db.Query("EXPLAIN " + sql, options);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  Result<Table> a = db.Query("EXPLAIN ANALYZE " + sql, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  *plain = FromExplain(*p);
  *analyzed = FromAnalyze(*a);
}

// The paper's strategies at `dop`, forced as SET vpct (best, noindex,
// update, rescan) and the OLAP verb force a Vpct query and SET horizontal
// (case, case_fv, spj, spj_fv) an Hpct/Hagg query; none for another class.
std::vector<std::pair<std::string, QueryOptions>> Forced(QueryClass c,
                                                         size_t dop) {
  std::vector<std::pair<std::string, QueryOptions>> out;
  QueryOptions base;
  base.degree_of_parallelism = dop;
  if (c == QueryClass::kVpct) {
    VpctStrategy best, noindex, update, rescan;
    noindex.matching_indexes = false;
    update.insert_result = false;
    rescan.fj_from_fk = false;
    for (const auto& [name, strategy] :
         {std::pair{"best", best}, std::pair{"noindex", noindex},
          std::pair{"update", update}, std::pair{"rescan", rescan}}) {
      out.emplace_back(std::string("SET vpct ") + name, base);
      out.back().second.vpct_strategy = strategy;
    }
    out.emplace_back("OLAP", base);
    out.back().second.olap_baseline = true;
  } else if (c == QueryClass::kHorizontal) {
    for (const auto& [name, method] :
         {std::pair{"case", HorizontalMethod::kCaseDirect},
          std::pair{"case_fv", HorizontalMethod::kCaseFromFV},
          std::pair{"spj", HorizontalMethod::kSpjDirect},
          std::pair{"spj_fv", HorizontalMethod::kSpjFromFV}}) {
      out.emplace_back(std::string("SET horizontal ") + name, base);
      out.back().second.horizontal_strategy = HorizontalStrategy{};
      out.back().second.horizontal_strategy->method = method;
    }
  }
  return out;
}

// pipeline_test's IntFact: d1(4) x d2(5, ~10% NULL) x d3(3), INT64 measure
// a with ~8% NULLs.
Table IntFact(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"d3", DataType::kInt64},
                  {"a", DataType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    Value d2 = rng.Uniform(10) == 0
                   ? Value::Null()
                   : Value::Int64(static_cast<int64_t>(rng.Uniform(5)));
    Value a = rng.Uniform(12) == 0
                  ? Value::Null()
                  : Value::Int64(static_cast<int64_t>(rng.Uniform(100)) + 1);
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(4))), d2,
                 Value::Int64(static_cast<int64_t>(rng.Uniform(3))), a});
  }
  return t;
}

TEST_F(DifferentialTest, ExplainShowsThePlanThatRuns) {
  std::vector<std::string> local = sqls_;
  local.push_back(
      "SELECT d1, m1, sum(m1) OVER (PARTITION BY d1) AS w FROM f");
  local.push_back("SELECT d1, s, m2 FROM f WHERE d2 = 1");
  // Above kFusedMinRows the advisor itself puts a Vpct on the partial path.
  PctDatabase big;
  ASSERT_TRUE(big.CreateTable("f", IntFact(70000, 43)).ok());
  const std::string big_sql =
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2";
  // One batch over that table whose members all take the partial path on
  // their own, so plain EXPLAIN prints steps to compare a member's with.
  const std::vector<std::string> batch = {
      big_sql,
      "SELECT d1, sum(a) AS s, count(*) AS n FROM f GROUP BY d1",
      "SELECT d2, d3, sum(a) AS s FROM f GROUP BY CUBE(d2, d3)",
      "SELECT d1, Hpct(a BY d3) FROM f GROUP BY d1",
  };

  size_t partial = 0;
  for (size_t dop : kDops) {
    auto local_check = [&](const PctDatabase& db, const std::string& sql) {
      SCOPED_TRACE(sql + " @ dop=" + std::to_string(dop));
      Listing p, a;
      Explained(db, sql, AtDop(dop), &p, &a);
      ExpectSamePlan(p, a);
      if (p.strategy.rfind("partial", 0) == 0) ++partial;
    };
    for (const std::string& sql : local) local_check(db_, sql);
    local_check(big, big_sql);

    // Every paper strategy the sessions can force, and the OLAP baseline.
    for (const std::string& sql : sqls_) {
      Result<AnalyzedQuery> q = db_.PrepareQuery(sql);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      for (const auto& [name, options] : Forced(q->query_class, dop)) {
        SCOPED_TRACE(sql + " under " + name + " @ dop=" +
                     std::to_string(dop));
        Listing p, a;
        Explained(db_, sql, options, &p, &a);
        ExpectSamePlan(p, a);
      }
    }

    // The batch, traced, through the executor: each member's EXPLAIN ANALYZE
    // shows the batch and the rollup from it as its source, then the steps
    // plain EXPLAIN prints after the scan those two replace.
    ExecutorConfig config;
    config.worker_threads = batch.size();
    config.mqo_window_ms = 10000;  // max_batch closes the batch
    config.mqo_max_batch = batch.size();
    QueryExecutor executor(&big, config);
    std::vector<Result<Table>> analyzed(batch.size(), Result<Table>(Table()));
    std::vector<std::thread> threads;
    for (size_t m = 0; m < batch.size(); ++m) {
      threads.emplace_back([&, m] {
        QueryOptions options = AtDop(dop);
        options.mqo = MqoMode::kOn;
        analyzed[m] =
            executor.ExecuteStatement("EXPLAIN ANALYZE " + batch[m], options, 0);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(executor.mqo_gate().queries_batched(), batch.size());
    for (size_t m = 0; m < batch.size(); ++m) {
      SCOPED_TRACE("batch member: " + batch[m] + " @ dop=" +
                   std::to_string(dop));
      Result<Table> plain = big.Query("EXPLAIN " + batch[m], AtDop(dop));
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ASSERT_TRUE(analyzed[m].ok()) << analyzed[m].status().ToString();
      const Listing p = FromExplain(*plain);
      const Listing a = FromAnalyze(*analyzed[m]);
      ASSERT_EQ(p.strategy.rfind("partial from fused scan", 0), 0u)
          << Show(p);
      ASSERT_EQ(p.steps.front().label, "fused") << Show(p);
      EXPECT_EQ(a.strategy, "partial from mqo batch (mqo-gate)") << Show(a);
      ASSERT_GE(a.steps.size(), 2u) << Show(a);
      EXPECT_EQ(a.steps[0].label, "mqo-batch") << Show(a);
      EXPECT_EQ(a.steps[1].detail.rfind("mqo-batch-rollup: ", 0), 0u)
          << Show(a);
      ExpectSamePlan({a.strategy, {p.steps.begin() + 1, p.steps.end()}},
                     {a.strategy, {a.steps.begin() + 2, a.steps.end()}});
    }

    for (const std::string& sql : sqls_) {
      SCOPED_TRACE("2 shards: " + sql + " @ dop=" + std::to_string(dop));
      Result<Table> plain = Sharded("EXPLAIN " + sql, dop);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      Result<Table> analyzed = Sharded("EXPLAIN ANALYZE " + sql, dop);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      ExpectSamePlan(FromExplain(*plain), FromAnalyze(*analyzed));
    }

    // With the cache on, every unfiltered query twice, locally and on 2
    // shards. The first run's source may be a cached ancestor that an
    // earlier query left; the second is answered by the exact entry: the
    // same steps, the source marked cache=hit.
    QueryOptions cache_on = AtDop(dop);
    cache_on.use_summary_cache = true;
    PctDatabase* const cached_dbs[] = {&db_, &clusters_[1]->db};
    for (const std::string& sql : sqls_) {
      Result<AnalyzedQuery> q = db_.PrepareQuery(sql);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      if (q->where != nullptr) continue;
      for (PctDatabase* db : cached_dbs) {
        SCOPED_TRACE((db == &db_ ? "cache on: " : "2 shards, cache on: ") +
                     sql + " @ dop=" + std::to_string(dop));
        Listing p, first, second;
        Explained(*db, sql, cache_on, &p, &first);
        Result<Table> again = db->Query("EXPLAIN ANALYZE " + sql, cache_on);
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        second = FromAnalyze(*again);
        ExpectSameSteps(p, first, /*cached_source=*/true);
        ExpectSameSteps(p, second);
        if (p.strategy.rfind("partial", 0) == 0) {
          EXPECT_EQ(second.strategy, "partial from cache entry (cache)");
          ASSERT_FALSE(second.steps.empty());
          EXPECT_TRUE(second.steps[0].hit) << Show(second);
        }
      }
    }

    // A coarser query after a finer one: the cached ancestor answers it, in
    // place of the source step.
    for (PctDatabase* db : cached_dbs) {
      SCOPED_TRACE(std::string(db == &db_ ? "" : "2 shards, ") +
                   "cached ancestor @ dop=" + std::to_string(dop));
      db->summaries().Clear();
      ASSERT_TRUE(
          db->Query("SELECT d1, d2, sum(m1) AS s FROM f GROUP BY d1, d2",
                    cache_on)
              .ok());
      Listing p, a;
      Explained(*db, "SELECT d1, sum(m1) AS s FROM f GROUP BY d1", cache_on,
                &p, &a);
      EXPECT_EQ(a.strategy, "partial from cached ancestor (cache)");
      ASSERT_FALSE(a.steps.empty());
      EXPECT_EQ(a.steps[0].label, "cache") << Show(a);
      EXPECT_TRUE(a.steps[0].hit) << Show(a);
      ExpectSameSteps(p, a, /*cached_source=*/true);
    }
  }
  // Both evaluators were seen locally: the partial path (plain aggregates,
  // grouping sets, the 70,000-row Vpct) and the paper's scripts.
  EXPECT_GT(partial, 2u);
  EXPECT_LT(partial, 2 * (local.size() + 1));
}

}  // namespace
}  // namespace pctagg
