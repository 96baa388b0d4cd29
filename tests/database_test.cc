// End-to-end tests of the PctDatabase facade: the paper's worked examples
// (Tables 1-3) plus strategy overrides, EXPLAIN output, and error paths.

#include "core/database.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/advisor.h"
#include "dist/coordinator.h"
#include "engine/csv.h"
#include "server/server.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

// Fetches (state, city) -> percentage from a Vpct result table.
std::map<std::pair<std::string, std::string>, double> VpctByCity(
    const Table& t) {
  std::map<std::pair<std::string, std::string>, double> out;
  const Column* state = t.ColumnByName("state").value();
  const Column* city = t.ColumnByName("city").value();
  const Column* pct = t.ColumnByName("pct").value();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    out[{state->StringAt(i), city->StringAt(i)}] = pct->Float64At(i);
  }
  return out;
}

TEST(DatabaseTest, PaperTable2VerticalPercentages) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleSales()).ok());
  Result<Table> r = db.Query(
      "SELECT state, city, Vpct(salesAmt BY city) AS pct "
      "FROM sales GROUP BY state, city ORDER BY state, city");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  EXPECT_EQ(t.num_rows(), 4u);
  auto pct = VpctByCity(t);
  // Paper Table 2: CA LA 22%, CA SF 78%, TX Dallas 57%, TX Houston 43%.
  EXPECT_NEAR((pct[{"CA", "Los Angeles"}]), 23.0 / 106.0, 1e-9);
  EXPECT_NEAR((pct[{"CA", "San Francisco"}]), 83.0 / 106.0, 1e-9);
  EXPECT_NEAR((pct[{"TX", "Dallas"}]), 85.0 / 149.0, 1e-9);
  EXPECT_NEAR((pct[{"TX", "Houston"}]), 64.0 / 149.0, 1e-9);
  // Row order follows ORDER BY state, city.
  EXPECT_EQ(t.column(0).StringAt(0), "CA");
  EXPECT_EQ(t.column(1).StringAt(0), "Los Angeles");
}

TEST(DatabaseTest, PaperTable3HorizontalPercentages) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleStoreSales()).ok());
  Result<Table> r = db.Query(
      "SELECT store, Hpct(salesAmt BY dweek), sum(salesAmt) AS total "
      "FROM sales GROUP BY store ORDER BY store");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  EXPECT_EQ(t.num_rows(), 3u);
  // store | 7 dweek percentage columns | total sales.
  ASSERT_EQ(t.num_columns(), 9u);
  // Store 4 (row 1) has no Monday sales: 0%, like the paper's Table 3.
  Result<const Column*> monday = t.ColumnByName("dweek=1");
  ASSERT_TRUE(monday.ok()) << monday.status().ToString();
  EXPECT_FALSE(monday.value()->IsNull(1));
  EXPECT_DOUBLE_EQ(monday.value()->Float64At(1), 0.0);
  // Every store's percentages add to 100%.
  for (size_t row = 0; row < t.num_rows(); ++row) {
    double sum = 0;
    for (int d = 1; d <= 7; ++d) {
      const Column* c = t.ColumnByName("dweek=" + std::to_string(d)).value();
      if (!c->IsNull(row)) sum += c->Float64At(row);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // Store 4 total = 4000.
  const Column* total = t.ColumnByName("total").value();
  EXPECT_DOUBLE_EQ(total->Float64At(1), 4000.0);
}

TEST(DatabaseTest, OlapBaselineMatchesVpct) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleSales()).ok());
  std::string sql =
      "SELECT state, city, Vpct(salesAmt BY city) AS pct "
      "FROM sales GROUP BY state, city ORDER BY state, city";
  Result<Table> direct = db.Query(sql);
  Result<Table> olap = db.QueryOlapBaseline(sql);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(olap.ok()) << olap.status().ToString();
  auto a = VpctByCity(direct.value());
  auto b = VpctByCity(olap.value());
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, v] : a) {
    EXPECT_NEAR(v, b.at(key), 1e-9);
  }
}

TEST(DatabaseTest, ExplainRendersGeneratedScript) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleSales()).ok());
  Result<std::string> script = db.Explain(
      "SELECT state, city, Vpct(salesAmt BY city) AS pct "
      "FROM sales GROUP BY state, city");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_NE(script.value().find("INSERT INTO"), std::string::npos);
  EXPECT_NE(script.value().find("GROUP BY state, city"), std::string::npos);
  EXPECT_NE(script.value().find("CREATE INDEX"), std::string::npos);
}

TEST(DatabaseTest, AnalysisErrorsSurface) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleSales()).ok());
  // Vpct rule 1: GROUP BY required.
  Result<Table> r1 = db.Query("SELECT Vpct(salesAmt BY city) FROM sales");
  EXPECT_EQ(r1.status().code(), StatusCode::kAnalysisError);
  // Hpct rule 2: BY disjoint from GROUP BY.
  Result<Table> r2 = db.Query(
      "SELECT city, Hpct(salesAmt BY city) FROM sales GROUP BY city");
  EXPECT_EQ(r2.status().code(), StatusCode::kAnalysisError);
  // Unknown table.
  Result<Table> r3 = db.Query("SELECT x FROM nope");
  EXPECT_EQ(r3.status().code(), StatusCode::kNotFound);
}

// INT64 keys just above 2^53 are distinct integers that round to the same
// double; WHERE, HAVING and CASE must compare them as integers.
TEST(DatabaseTest, Int64PredicatesAbove2To53AreExact) {
  Table t(Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
  t.AppendRow({Value::Int64(9007199254740992), Value::Int64(1)});
  t.AppendRow({Value::Int64(9007199254740993), Value::Int64(2)});
  t.AppendRow({Value::Int64(9007199254740994), Value::Int64(4)});
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());

  Result<Table> point =
      db.Query("SELECT id, v FROM t WHERE id = 9007199254740993");
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  ASSERT_EQ(point->num_rows(), 1u);
  EXPECT_EQ(point->column(0).Int64At(0), 9007199254740993);

  Result<Table> pct = db.Query(
      "SELECT id, Vpct(v) AS p FROM t WHERE id > 9007199254740992 "
      "GROUP BY id ORDER BY id");
  ASSERT_TRUE(pct.ok()) << pct.status().ToString();
  ASSERT_EQ(pct->num_rows(), 2u);
  EXPECT_EQ(pct->column(0).Int64At(0), 9007199254740993);
  EXPECT_EQ(pct->column(0).Int64At(1), 9007199254740994);
  EXPECT_DOUBLE_EQ(pct->column(1).Float64At(0), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(pct->column(1).Float64At(1), 4.0 / 6.0);

  Result<Table> having = db.Query(
      "SELECT id, sum(v) AS s FROM t GROUP BY id "
      "HAVING id = 9007199254740993");
  ASSERT_TRUE(having.ok()) << having.status().ToString();
  ASSERT_EQ(having->num_rows(), 1u);
  EXPECT_EQ(having->column(1).Int64At(0), 2);

  Result<Table> cased = db.Query(
      "SELECT id, CASE WHEN id = 9007199254740993 THEN 1 ELSE 0 END AS hit "
      "FROM t");
  ASSERT_TRUE(cased.ok()) << cased.status().ToString();
  ASSERT_EQ(cased->num_rows(), 3u);
  EXPECT_EQ(cased->column(1).Int64At(0), 0);
  EXPECT_EQ(cased->column(1).Int64At(1), 1);
  EXPECT_EQ(cased->column(1).Int64At(2), 0);
}

// INT64 values above 2^53, and the extremes of the type, in three groups.
Table BigIdTable() {
  constexpr int64_t k2To53 = 9007199254740992;
  Table t(Schema({{"k", DataType::kInt64}, {"id", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(k2To53)});
  t.AppendRow({Value::Int64(1), Value::Int64(k2To53 + 1)});
  t.AppendRow({Value::Int64(2), Value::Int64(k2To53 + 3)});
  t.AppendRow({Value::Int64(2), Value::Int64(k2To53 + 2)});
  t.AppendRow({Value::Int64(3), Value::Int64(INT64_MAX)});
  t.AppendRow({Value::Int64(3), Value::Int64(INT64_MIN + 1)});
  return t;
}

// min/max keep int64 state for INT64 inputs: through a double, max over
// {2^53, 2^53 + 1} was 2^53, max over {2^53 + 2, 2^53 + 3} was 2^53 + 4 (not
// in the column), and INT64_MAX cast back from 2^63 was INT64_MIN.
TEST(DatabaseTest, Int64MinMaxAreExact) {
  constexpr int64_t k2To53 = 9007199254740992;
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", BigIdTable()).ok());
  Result<Table> r = db.Query(
      "SELECT k, max(id) AS hi, min(id) AS lo FROM t GROUP BY k ORDER BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->column(1).Int64At(0), k2To53 + 1);
  EXPECT_EQ(r->column(2).Int64At(0), k2To53);
  EXPECT_EQ(r->column(1).Int64At(1), k2To53 + 3);
  EXPECT_EQ(r->column(2).Int64At(1), k2To53 + 2);
  EXPECT_EQ(r->column(1).Int64At(2), INT64_MAX);
  EXPECT_EQ(r->column(2).Int64At(2), INT64_MIN + 1);

  // The horizontal form, on the partial path (partials + pivot) and on the
  // materialized plan the advisor picks.
  const std::string hagg = "SELECT max(id BY k) FROM t";
  Result<AnalyzedQuery> q = db.PrepareQuery(hagg);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  QueryOptions materialized;
  materialized.horizontal_strategy = StrategyAdvisor().AdviseHorizontal(
      db.PlannerStatistics("t").value(), *q);
  for (Result<Table> h : {db.QueryPartial(hagg, QueryOptions{}),
                          db.Query(hagg, materialized)}) {
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_EQ(h->num_rows(), 1u);
    EXPECT_EQ(h->ColumnByName("k=1").value()->Int64At(0), k2To53 + 1);
    EXPECT_EQ(h->ColumnByName("k=2").value()->Int64At(0), k2To53 + 3);
    EXPECT_EQ(h->ColumnByName("k=3").value()->Int64At(0), INT64_MAX);
  }
}

// Every CUBE level rolls min/max up from the finest partials, exactly.
TEST(DatabaseTest, Int64MinMaxAreExactAcrossCubeLevels) {
  constexpr int64_t k2To53 = 9007199254740992;
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", BigIdTable()).ok());
  Result<Table> r = db.Query(
      "SELECT k, max(id) AS hi, min(id) AS lo FROM t WHERE k <> 3 "
      "GROUP BY CUBE(k)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 3u);  // k = 1, k = 2, ()
  EXPECT_TRUE(r->column(0).IsNull(2));
  EXPECT_EQ(r->column(1).Int64At(2), k2To53 + 3);
  EXPECT_EQ(r->column(2).Int64At(2), k2To53);
  Result<Table> all =
      db.Query("SELECT k, max(id) AS hi, min(id) AS lo FROM t "
               "GROUP BY ROLLUP(k)");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->num_rows(), 4u);
  EXPECT_EQ(all->column(1).Int64At(3), INT64_MAX);
  EXPECT_EQ(all->column(2).Int64At(3), INT64_MIN + 1);
}

// The window forms keep int64 extremes too: through a double, max(v) OVER
// over {2^53, 2^53 + 1} was 2^53, and over {INT64_MAX, 5} it was INT64_MIN.
TEST(DatabaseTest, Int64WindowMinMaxAreExact) {
  constexpr int64_t k2To53 = 9007199254740992;
  Result<Table> t = ParseCsvAuto(
      "g,v\n"
      "1,9007199254740992\n"
      "1,9007199254740993\n"
      "2,9223372036854775807\n"
      "2,5\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->schema().column(1).type, DataType::kInt64);
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", std::move(*t)).ok());
  Result<Table> r = db.Query(
      "SELECT g, v, max(v) OVER (PARTITION BY g) AS hi, "
      "min(v) OVER (PARTITION BY g) AS lo FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 4u);
  const Column* hi = r->ColumnByName("hi").value();
  const Column* lo = r->ColumnByName("lo").value();
  ASSERT_EQ(hi->type(), DataType::kInt64);
  ASSERT_EQ(lo->type(), DataType::kInt64);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(hi->Int64At(i), k2To53 + 1);
    EXPECT_EQ(lo->Int64At(i), k2To53);
  }
  for (size_t i = 2; i < 4; ++i) {
    EXPECT_EQ(hi->Int64At(i), INT64_MAX);
    EXPECT_EQ(lo->Int64At(i), 5);
  }
}

// Rows [begin, end) of the overflow fixture as t(r, g, b, v): group 1
// holds {INT64_MAX, 1}, group 2 {INT64_MAX, 1, -2}; r is a row id to shard
// on, b a single pivot value.
Table OverflowRows(size_t begin, size_t end) {
  constexpr int64_t kRows[][2] = {
      {1, INT64_MAX}, {2, INT64_MAX}, {1, 1}, {2, 1}, {2, -2}};
  Table t(Schema({{"r", DataType::kInt64},
                  {"g", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"v", DataType::kInt64}}));
  for (size_t i = begin; i < end; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(i)),
                 Value::Int64(kRows[i][0]), Value::Int64(0),
                 Value::Int64(kRows[i][1])});
  }
  return t;
}

// Column `col` of `t` keyed by its `g` column (every row of a group must
// agree, as a window's rows do).
std::map<int64_t, int64_t> ByGroup(const Result<Table>& t,
                                   const std::string& col) {
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  std::map<int64_t, int64_t> out;
  if (!t.ok()) return out;
  const Column* g = t->ColumnByName("g").value();
  Result<const Column*> c = t->ColumnByName(col);
  EXPECT_TRUE(c.ok()) << "no column " << col;
  if (!c.ok()) return out;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    EXPECT_EQ((*c)->type(), DataType::kInt64);
    const int64_t v = (*c)->IsNull(i) ? 0 : (*c)->Int64At(i);
    auto [it, inserted] = out.emplace(g->Int64At(i), v);
    EXPECT_EQ(it->second, v) << col << " disagrees within group " << it->first;
  }
  return out;
}

// INT64 sums wrap as two's complement on every evaluator. Wrapping addition
// is associative and commutative, so every fold order gives one answer:
// INT64_MIN for {INT64_MAX, 1}, and the exact INT64_MAX - 1 for
// {INT64_MAX, 1, -2}, whose true sum fits.
TEST(DatabaseTest, Int64SumsWrapOnEveryEvaluator) {
  const std::map<int64_t, int64_t> want = {{1, INT64_MIN}, {2, INT64_MAX - 1}};
  const std::string plain = "SELECT g, sum(v) AS s FROM t GROUP BY g";

  // A two-shard cluster over t, sharded on the row id.
  PctDatabase coord;
  ASSERT_TRUE(coord.CreateTable("t", OverflowRows(0, 5)).ok());
  std::vector<std::unique_ptr<PctDatabase>> worker_dbs;
  std::vector<std::unique_ptr<PctServer>> workers;
  std::vector<dist::WorkerEndpoint> endpoints;
  for (size_t i = 0; i < 2; ++i) {
    worker_dbs.push_back(std::make_unique<PctDatabase>());
    ServerConfig config;
    config.port = 0;
    config.worker_threads = 2;
    workers.push_back(
        std::make_unique<PctServer>(worker_dbs.back().get(), config));
    ASSERT_TRUE(workers.back()->Start().ok());
    endpoints.push_back({"127.0.0.1", workers.back()->port()});
  }
  dist::Coordinator coordinator(&coord, endpoints, dist::CoordinatorConfig{});
  ASSERT_TRUE(coordinator.ShardTable("t", "r").ok());

  for (size_t dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    QueryOptions options;
    options.degree_of_parallelism = dop;
    PctDatabase db;
    ASSERT_TRUE(db.CreateTable("t", OverflowRows(0, 5)).ok());

    EXPECT_EQ(ByGroup(db.QueryPartial(plain, options), "s"), want);

    // The materialized Vpct script computes sum(v) in its Fk step.
    QueryOptions materialized = options;
    materialized.vpct_strategy = VpctStrategy{};
    EXPECT_EQ(ByGroup(db.Query("SELECT g, Vpct(v) AS p, sum(v) AS s FROM t "
                               "GROUP BY g",
                               materialized),
                      "s"),
              want);

    // sum(v BY b): the pivot over the partial path's partials, and over F
    // with the CASE-from-F plan's hash dispatch.
    const std::string hagg = "SELECT g, sum(v BY b) FROM t GROUP BY g";
    EXPECT_EQ(ByGroup(db.QueryPartial(hagg, options), "b=0"), want);
    QueryOptions case_from_f = options;
    case_from_f.horizontal_strategy = HorizontalStrategy{};
    EXPECT_EQ(ByGroup(db.Query(hagg, case_from_f), "b=0"), want);

    EXPECT_EQ(
        ByGroup(db.Query("SELECT g, sum(v) OVER (PARTITION BY g) AS w FROM t",
                         options),
                "w"),
        want);

    // A cache entry filled over the two INT64_MAX rows, then delta-merged
    // with the other three.
    PctDatabase cached;
    cached.EnableSummaryCache(true);
    ASSERT_TRUE(cached.CreateTable("t", OverflowRows(0, 2)).ok());
    ASSERT_TRUE(cached.QueryPartial(plain, options).ok());
    QueryOptions append = options;
    append.append_policy = AppendPolicy::kMerge;
    Result<AppendOutcome> outcome =
        cached.AppendRows("t", OverflowRows(2, 5), append);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->summaries_merged, 1u);
    const size_t hits = cached.summaries().hits();
    EXPECT_EQ(ByGroup(cached.QueryPartial(plain, options), "s"), want);
    EXPECT_GT(cached.summaries().hits(), hits);

    EXPECT_EQ(ByGroup(coord.Query(plain, options), "s"), want);
  }
}

// ORDER BY compares INT64 as int64: through a double, 2^53 and 2^53 + 1
// compared equal and the stable sort kept input order.
TEST(DatabaseTest, OrderByInt64Above2To53IsExact) {
  constexpr int64_t k2To53 = 9007199254740992;
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", BigIdTable()).ok());
  Result<Table> r =
      db.Query("SELECT id FROM t WHERE k = 1 ORDER BY id DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->column(0).Int64At(0), k2To53 + 1);
  EXPECT_EQ(r->column(0).Int64At(1), k2To53);
  Result<Table> grouped = db.Query(
      "SELECT id, count(*) AS n FROM t WHERE k = 2 GROUP BY id ORDER BY id");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->num_rows(), 2u);
  EXPECT_EQ(grouped->column(0).Int64At(0), k2To53 + 2);
  EXPECT_EQ(grouped->column(0).Int64At(1), k2To53 + 3);
}

// AND, OR, NOT and CASE WHEN over a FLOAT64 operand are type errors; they
// used to read the operand's missing INT64 array and abort the process.
TEST(DatabaseTest, NonBooleanLogicalOperandsAreTypeErrors) {
  Table t(Schema({{"k", DataType::kInt64}, {"x", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(1), Value::Float64(0.5)});
  t.AppendRow({Value::Int64(2), Value::Float64(0.0)});
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", std::move(t)).ok());
  for (const char* sql :
       {"SELECT k, count(*) AS n FROM t WHERE x AND k <= 1 GROUP BY k",
        "SELECT k, count(*) AS n FROM t WHERE k <= 1 OR x GROUP BY k",
        "SELECT k FROM t WHERE NOT x",
        "SELECT k, CASE WHEN x THEN 1 ELSE 0 END AS c FROM t"}) {
    SCOPED_TRACE(sql);
    Result<Table> r = db.Query(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeMismatch);
  }
}

TEST(DatabaseTest, CreateTableAsMaterializesQueries) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleSales()).ok());
  // Materialize a filtered view and run a percentage query against it (the
  // paper: "F can be a temporary table resulting from some query").
  ASSERT_TRUE(db.CreateTableAs("tx",
                               "SELECT state, city, salesAmt FROM sales "
                               "WHERE state = 'TX'")
                  .ok());
  Table t = db.Query("SELECT city, Vpct(salesAmt BY city) AS pct FROM tx "
                     "GROUP BY city ORDER BY city")
                .value();
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_NEAR(t.ColumnByName("pct").value()->Float64At(0), 85.0 / 149.0,
              1e-9);
  // Name collisions and broken queries are rejected without side effects.
  EXPECT_EQ(db.CreateTableAs("tx", "SELECT city FROM sales").code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(db.CreateTableAs("bad", "SELECT nope FROM sales").ok());
  EXPECT_FALSE(db.catalog().HasTable("bad"));
}

// CREATE TABLE AS is a statement of the embedded API too: Execute runs it,
// and Query refuses it as the write it is.
TEST(DatabaseTest, ExecuteRunsCreateTableAs) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("s", GenerateSales(3000)).ok());
  const std::string ctas =
      "CREATE TABLE byweek AS SELECT dweek, sum(salesAmt) AS s FROM s "
      "GROUP BY dweek;";
  EXPECT_EQ(db.Query(ctas).status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.catalog().HasTable("byweek"));
  Result<Table> created = db.Execute(ctas);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  Result<Table> n = db.Query("SELECT count(*) AS n FROM byweek");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(FormatCsv(*n), "n\n7\n");
  EXPECT_EQ(db.Execute(ctas).status().code(), StatusCode::kAlreadyExists);
}

TEST(DatabaseTest, StrategyOverridesAgree) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", PaperExampleSales()).ok());
  std::string sql =
      "SELECT state, city, Vpct(salesAmt BY city) AS pct "
      "FROM sales GROUP BY state, city";
  VpctStrategy update_strategy;
  update_strategy.insert_result = false;
  Result<Table> ins = db.QueryVpct(sql, VpctStrategy{});
  Result<Table> upd = db.QueryVpct(sql, update_strategy);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  auto a = VpctByCity(ins.value());
  auto b = VpctByCity(upd.value());
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, v] : a) {
    EXPECT_NEAR(v, b.at(key), 1e-12);
  }
}

}  // namespace
}  // namespace pctagg
