// Tests for the grouping-set lattice (core/lattice_plan.h): analyzer
// expansion of CUBE/ROLLUP/GROUPING SETS, hand-checked small-table results
// with Vpct/Hpct/GROUPING(), the LatticeSweep property suite asserting the
// shared-scan rollup is bit-identical to per-level recompute across dop
// {1, 4} (NULL keys, dictionary string keys, WHERE, the empty set ()),
// summary-cache reuse across lattice levels (including delta maintenance
// after an APPEND), EXPLAIN ANALYZE shape (one fused scan feeding every
// rollup), and the SET lattice session option.
//
// Integer measures keep double sums exact, so shared and per-level agree
// bitwise at every dop; float sums would differ by reassociation only (the
// standard cross-dop caveat — docs/PARALLELISM.md).
//
// The LatticeSweep suite doubles as the TSan target (`lattice_tsan` in
// tests/CMakeLists.txt): the shared path re-aggregates cached partials on
// the morsel pool while other levels compute concurrently-visible tables.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/advisor.h"
#include "core/database.h"
#include "core/lattice_plan.h"
#include "obs/trace.h"
#include "server/session.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

// d1(4) x d2(5) x d3(3) with ~10% NULL d2 keys; INT64 measure in [1, 100]
// with ~8% NULLs (same shape as pipeline_test's fact).
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

// 2x2 fact with an exact integer measure: every percentage below is a ratio
// of small integers, hand-checkable.
Table TinyFact() {
  Table t(Schema({{"a", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"x", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1), Value::Int64(10)});
  t.AppendRow({Value::Int64(1), Value::Int64(2), Value::Int64(20)});
  t.AppendRow({Value::Int64(2), Value::Int64(1), Value::Int64(30)});
  t.AppendRow({Value::Int64(2), Value::Int64(2), Value::Int64(40)});
  return t;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Exact-equality comparison: same schema, same row count, and every cell
// matches bit-for-bit (doubles compared by bit pattern).
::testing::AssertionResult BitIdentical(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << a.num_columns() << " vs " << b.num_columns();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.schema().column(c).name != b.schema().column(c).name) {
      return ::testing::AssertionFailure()
             << "column " << c << " name " << a.schema().column(c).name
             << " vs " << b.schema().column(c).name;
    }
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t i = 0; i < a.num_rows(); ++i) {
      Value va = a.column(c).GetValue(i);
      Value vb = b.column(c).GetValue(i);
      if (va.is_null() != vb.is_null()) {
        return ::testing::AssertionFailure()
               << "null mismatch at (" << i << ", "
               << a.schema().column(c).name << "): " << va.ToString() << " vs "
               << vb.ToString();
      }
      if (va.is_null()) continue;
      bool same;
      if (va.is_float64() && vb.is_float64()) {
        same = DoubleBits(va.AsDouble()) == DoubleBits(vb.AsDouble());
      } else {
        same = !va.is_float64() && !vb.is_float64() &&
               va.ToString() == vb.ToString();
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "cell mismatch at (" << i << ", "
               << a.schema().column(c).name << "): " << va.ToString() << " vs "
               << vb.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Result<AnalyzedQuery> AnalyzeSql(const std::string& sql, const Schema& schema) {
  PCTAGG_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  return Analyze(stmt, schema);
}

Schema FactSchema() {
  return Schema({{"d1", DataType::kInt64},
                 {"d2", DataType::kInt64},
                 {"d3", DataType::kInt64},
                 {"a", DataType::kInt64}});
}

// --- Analyzer expansion -----------------------------------------------------

TEST(LatticeAnalyzer, CubeExpandsAllSubsetsFinestFirst) {
  Result<AnalyzedQuery> r = AnalyzeSql(
      "SELECT d1, d2, sum(a) FROM f GROUP BY CUBE(d1, d2)", FactSchema());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AnalyzedQuery& q = r.value();
  EXPECT_TRUE(q.has_grouping_sets);
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"d1", "d2"}));
  ASSERT_EQ(q.grouping_sets.size(), 4u);
  EXPECT_EQ(q.grouping_sets[0], (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(q.grouping_sets[1], (std::vector<std::string>{"d1"}));
  EXPECT_EQ(q.grouping_sets[2], (std::vector<std::string>{"d2"}));
  EXPECT_TRUE(q.grouping_sets[3].empty());
}

TEST(LatticeAnalyzer, RollupExpandsPrefixesDownToGlobal) {
  Result<AnalyzedQuery> r = AnalyzeSql(
      "SELECT d1, d2, d3, count(*) FROM f GROUP BY ROLLUP(d1, d2, d3)",
      FactSchema());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AnalyzedQuery& q = r.value();
  ASSERT_EQ(q.grouping_sets.size(), 4u);
  EXPECT_EQ(q.grouping_sets[0], (std::vector<std::string>{"d1", "d2", "d3"}));
  EXPECT_EQ(q.grouping_sets[1], (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(q.grouping_sets[2], (std::vector<std::string>{"d1"}));
  EXPECT_TRUE(q.grouping_sets[3].empty());
}

TEST(LatticeAnalyzer, GroupingSetsKeepDeclaredOrderNormalizedToUnion) {
  // Union in first-appearance order is (d2, d1); each level is re-spelled in
  // union order, so (d1, d2) becomes (d2, d1).
  Result<AnalyzedQuery> r = AnalyzeSql(
      "SELECT d1, d2, sum(a) FROM f "
      "GROUP BY GROUPING SETS ((d2), (d1, d2), ())",
      FactSchema());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AnalyzedQuery& q = r.value();
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"d2", "d1"}));
  ASSERT_EQ(q.grouping_sets.size(), 3u);
  EXPECT_EQ(q.grouping_sets[0], (std::vector<std::string>{"d2"}));
  EXPECT_EQ(q.grouping_sets[1], (std::vector<std::string>{"d2", "d1"}));
  EXPECT_TRUE(q.grouping_sets[2].empty());
}

TEST(LatticeAnalyzer, GroupingFunctionRequiresGroupingSets) {
  EXPECT_FALSE(AnalyzeSql("SELECT d1, GROUPING(d1), sum(a) FROM f GROUP BY d1",
                          FactSchema())
                   .ok());
  Result<AnalyzedQuery> ok = AnalyzeSql(
      "SELECT d1, GROUPING(d1) AS g, sum(a) FROM f GROUP BY ROLLUP(d1)",
      FactSchema());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  bool saw_grouping = false;
  for (const AnalyzedTerm& t : ok.value().terms) {
    if (t.func == TermFunc::kGrouping) {
      saw_grouping = true;
      EXPECT_EQ(t.scalar_column, "d1");
    }
  }
  EXPECT_TRUE(saw_grouping);
}

TEST(LatticeAnalyzer, MixingCubeWithPlainGroupByRejected) {
  EXPECT_FALSE(
      AnalyzeSql("SELECT d1, d2, sum(a) FROM f GROUP BY d1, CUBE(d2)",
                 FactSchema())
          .ok());
  EXPECT_FALSE(
      AnalyzeSql("SELECT d1, d2, sum(a) FROM f GROUP BY CUBE(d1), d2",
                 FactSchema())
          .ok());
}

TEST(LatticeAnalyzer, LatticeSupportGates) {
  std::string why;
  // DISTINCT is not distributive over the lattice.
  Result<AnalyzedQuery> q1 = AnalyzeSql(
      "SELECT d1, count(DISTINCT d2) FROM f GROUP BY CUBE(d1)", FactSchema());
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  EXPECT_FALSE(LatticeSupported(q1.value(), &why));
  EXPECT_NE(why.find("DISTINCT"), std::string::npos) << why;
  // A plain grouped query without grouping sets is not lattice work.
  Result<AnalyzedQuery> q2 =
      AnalyzeSql("SELECT d1, sum(a) FROM f GROUP BY d1", FactSchema());
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(LatticeSupported(q2.value(), &why));
  // The supported shape passes.
  Result<AnalyzedQuery> q3 = AnalyzeSql(
      "SELECT d1, d2, Vpct(a BY d2), GROUPING(d1) FROM f GROUP BY CUBE(d1, d2)",
      FactSchema());
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_TRUE(LatticeSupported(q3.value(), &why)) << why;
}

// --- Hand-checked results ---------------------------------------------------

TEST(LatticeQuery, CubeVpctAndGroupingHandChecked) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", TinyFact()).ok());
  Result<Table> r = db.Query(
      "SELECT a, b, sum(x) AS s, Vpct(x BY b) AS pct, "
      "GROUPING(a) AS ga, GROUPING(b) AS gb FROM t GROUP BY CUBE(a, b)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  ASSERT_EQ(t.num_columns(), 6u);
  ASSERT_EQ(t.num_rows(), 9u);  // 4 + 2 + 2 + 1 levels, finest first

  struct Row {
    Value a, b;
    int64_t s;
    double pct;
    int64_t ga, gb;
  };
  // Level (a,b): pct = x / sum(x per a); level (a): each group is 100% of
  // itself (totals_by = (a) minus nothing left after removing b... = (a));
  // level (b): pct = sum(x per b) / grand total; level (): grand total.
  const std::vector<Row> expect = {
      {Value::Int64(1), Value::Int64(1), 10, 10.0 / 30.0, 0, 0},
      {Value::Int64(1), Value::Int64(2), 20, 20.0 / 30.0, 0, 0},
      {Value::Int64(2), Value::Int64(1), 30, 30.0 / 70.0, 0, 0},
      {Value::Int64(2), Value::Int64(2), 40, 40.0 / 70.0, 0, 0},
      {Value::Int64(1), Value::Null(), 30, 1.0, 0, 1},
      {Value::Int64(2), Value::Null(), 70, 1.0, 0, 1},
      {Value::Null(), Value::Int64(1), 40, 40.0 / 100.0, 1, 0},
      {Value::Null(), Value::Int64(2), 60, 60.0 / 100.0, 1, 0},
      {Value::Null(), Value::Null(), 100, 1.0, 1, 1},
  };
  for (size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(t.column(0).GetValue(i).ToString(), expect[i].a.ToString());
    EXPECT_EQ(t.column(1).GetValue(i).ToString(), expect[i].b.ToString());
    EXPECT_EQ(t.column(2).GetValue(i).int64(), expect[i].s);
    EXPECT_DOUBLE_EQ(t.column(3).GetValue(i).AsDouble(), expect[i].pct);
    EXPECT_EQ(t.column(4).GetValue(i).int64(), expect[i].ga);
    EXPECT_EQ(t.column(5).GetValue(i).int64(), expect[i].gb);
  }
}

TEST(LatticeQuery, RollupVerticalAggregatesWithAvg) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", TinyFact()).ok());
  Result<Table> r = db.Query(
      "SELECT a, avg(x) AS m, count(*) AS c, min(x) AS lo, max(x) AS hi "
      "FROM t GROUP BY ROLLUP(a)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  ASSERT_EQ(t.num_rows(), 3u);  // (a=1), (a=2), ()
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(0).AsDouble(), 15.0);
  EXPECT_EQ(t.column(2).GetValue(0).int64(), 2);
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(1).AsDouble(), 35.0);
  // The () row aggregates everything.
  EXPECT_TRUE(t.column(0).GetValue(2).is_null());
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(2).AsDouble(), 25.0);
  EXPECT_EQ(t.column(2).GetValue(2).int64(), 4);
  EXPECT_EQ(t.column(3).GetValue(2).int64(), 10);
  EXPECT_EQ(t.column(4).GetValue(2).int64(), 40);
}

TEST(LatticeQuery, RollupHpctHandChecked) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", TinyFact()).ok());
  Result<Table> r =
      db.Query("SELECT a, Hpct(x BY b) FROM t GROUP BY ROLLUP(a)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = r.value();
  // Levels (a) then (): 2 + 1 rows; columns a, GROUPING-free pivot pair.
  ASSERT_EQ(t.num_rows(), 3u);
  ASSERT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.schema().column(1).name, "b=1");
  EXPECT_EQ(t.schema().column(2).name, "b=2");
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(0).AsDouble(), 10.0 / 30.0);
  EXPECT_DOUBLE_EQ(t.column(2).GetValue(0).AsDouble(), 20.0 / 30.0);
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(1).AsDouble(), 30.0 / 70.0);
  EXPECT_DOUBLE_EQ(t.column(2).GetValue(1).AsDouble(), 40.0 / 70.0);
  // Global level: share of the grand total per b.
  EXPECT_TRUE(t.column(0).GetValue(2).is_null());
  EXPECT_DOUBLE_EQ(t.column(1).GetValue(2).AsDouble(), 40.0 / 100.0);
  EXPECT_DOUBLE_EQ(t.column(2).GetValue(2).AsDouble(), 60.0 / 100.0);
}

TEST(LatticeQuery, UnsupportedShapesAreInvalidArgument) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", TinyFact()).ok());
  Result<Table> distinct = db.Query(
      "SELECT a, count(DISTINCT b) FROM t GROUP BY CUBE(a)");
  EXPECT_EQ(distinct.status().code(), StatusCode::kInvalidArgument);
  Result<Table> avg_by =
      db.Query("SELECT a, avg(x BY b) FROM t GROUP BY ROLLUP(a)");
  EXPECT_EQ(avg_by.status().code(), StatusCode::kInvalidArgument);
}

TEST(LatticeQuery, ForcedStrategyShortcutsRejectGroupingSets) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", TinyFact()).ok());
  const std::string sql =
      "SELECT a, b, Vpct(x BY b) FROM t GROUP BY CUBE(a, b)";
  EXPECT_EQ(db.QueryVpct(sql, VpctStrategy{}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.QueryOlapBaseline(sql).status().code(),
            StatusCode::kInvalidArgument);
  HorizontalStrategy h;
  EXPECT_EQ(db.QueryHorizontal("SELECT a, Hpct(x BY b) FROM t "
                               "GROUP BY ROLLUP(a)",
                               h)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --- Shared-scan vs per-level bit-identity sweep ----------------------------

// Runs `sql` under both lattice modes at `dop` and checks bit-identity; the
// forced shared run must really report the shared strategy (and vice versa)
// so the comparison can't collapse into same-mode-twice.
void ExpectSharedMatchesPerLevel(const PctDatabase& db, const std::string& sql,
                                 size_t dop) {
  SCOPED_TRACE(sql + " @ dop=" + std::to_string(dop));
  obs::QueryTrace shared_trace;
  QueryOptions shared;
  shared.lattice = LatticeMode::kShared;
  shared.degree_of_parallelism = dop;
  shared.trace = &shared_trace;
  Result<Table> rs = db.Query(sql, shared);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(shared_trace.strategy, "lattice-shared");
  EXPECT_EQ(shared_trace.strategy_source, "forced");

  obs::QueryTrace per_trace;
  QueryOptions per_level;
  per_level.lattice = LatticeMode::kPerLevel;
  per_level.degree_of_parallelism = dop;
  per_level.trace = &per_trace;
  Result<Table> rp = db.Query(sql, per_level);
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  EXPECT_EQ(per_trace.strategy, "lattice-per-level");

  EXPECT_TRUE(BitIdentical(*rs, *rp));
}

class LatticeSweep : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("f", IntFact(3000, 7)).ok());
    ASSERT_TRUE(db_.CreateTable("salesn", GenerateSalesNamed(4000)).ok());
  }
  PctDatabase db_;
};

TEST_P(LatticeSweep, CubeVpctWithNullKeys) {
  // d2 has ~10% NULL keys and the measure has NULLs; 3-dim CUBE = 8 levels.
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, d2, d3, Vpct(a BY d3) AS pct, sum(a) AS s, "
      "GROUPING(d2) AS g2 FROM f GROUP BY CUBE(d1, d2, d3)",
      GetParam());
}

TEST_P(LatticeSweep, CubeVerticalAggregatesWithAvg) {
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, d2, avg(a) AS m, min(a) AS lo, max(a) AS hi, "
      "count(a) AS c, count(*) AS n FROM f GROUP BY CUBE(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, RollupStringDictionaryKeys) {
  // String group keys exercise the dictionary-code path; itemId is INT64 so
  // sums stay exact.
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT state, city, Vpct(itemId BY state) AS pct, sum(itemId) AS s "
      "FROM salesn GROUP BY ROLLUP(state, city)",
      GetParam());
}

TEST_P(LatticeSweep, GroupingSetsWithEmptySet) {
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, d2, d3, sum(a) AS s, GROUPING(d1) AS g1, "
      "GROUPING(d3) AS g3 FROM f "
      "GROUP BY GROUPING SETS ((d1, d2), (d3), ())",
      GetParam());
}

TEST_P(LatticeSweep, CubeWithWhereClause) {
  // A WHERE clause disables the summary cache for the lattice; both modes
  // must filter before aggregating.
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f WHERE d3 >= 1 "
      "GROUP BY CUBE(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, CubeWhereMatchesNothing) {
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, sum(a) AS s, count(*) AS c FROM f WHERE d3 = 99 "
      "GROUP BY CUBE(d1)",
      GetParam());
}

TEST_P(LatticeSweep, RollupHorizontalPct) {
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, d2, Hpct(a BY d3), count(*) AS c FROM f "
      "GROUP BY ROLLUP(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, CubeHorizontalAggWithDefault) {
  ExpectSharedMatchesPerLevel(
      db_, "SELECT d1, d2, sum(a BY d3 DEFAULT 0) FROM f GROUP BY CUBE(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, RollupWithHavingOrderLimit) {
  ExpectSharedMatchesPerLevel(
      db_,
      "SELECT d1, d2, sum(a) AS s FROM f GROUP BY ROLLUP(d1, d2) "
      "HAVING s > 0 ORDER BY s DESC LIMIT 10",
      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Dop, LatticeSweep, ::testing::Values(1, 4));

// --- Summary-cache reuse across levels --------------------------------------

// Counts the lattice level nodes (fused scans + rollups) in a trace and how
// many of them were answered straight from the summary cache.
void CountLevelNodes(const obs::QueryTrace& trace, size_t* levels,
                     size_t* hits) {
  *levels = 0;
  *hits = 0;
  for (const auto& node : trace.root().children) {
    const bool level_node =
        node->detail.rfind("fused-scan:", 0) == 0 ||
        node->detail.rfind("lattice-rollup:", 0) == 0;
    if (!level_node) continue;
    ++*levels;
    if (node->stats.cache_hit) ++*hits;
  }
}

TEST(LatticeCache, AllLevelsCachedAndDeltaMaintainedAfterAppend) {
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", IntFact(3000, 7)).ok());
  const std::string sql =
      "SELECT d1, d2, d3, Vpct(a BY d3) AS pct, sum(a) AS s "
      "FROM f GROUP BY CUBE(d1, d2, d3)";

  // Cold run fills one cache entry per level (8 for a 3-dim CUBE).
  obs::QueryTrace cold;
  QueryOptions opt;
  opt.trace = &cold;
  ASSERT_TRUE(db.Query(sql, opt).ok());
  size_t levels = 0, hits = 0;
  CountLevelNodes(cold, &levels, &hits);
  EXPECT_EQ(levels, 8u);
  EXPECT_EQ(hits, 0u);

  // Warm run: every level is a cache hit, shared and per-level alike (both
  // modes key the same per-level recipes).
  obs::QueryTrace warm;
  opt.trace = &warm;
  ASSERT_TRUE(db.Query(sql, opt).ok());
  CountLevelNodes(warm, &levels, &hits);
  EXPECT_EQ(levels, 8u);
  EXPECT_EQ(hits, 8u);
  obs::QueryTrace warm_per;
  QueryOptions per;
  per.lattice = LatticeMode::kPerLevel;
  per.trace = &warm_per;
  ASSERT_TRUE(db.Query(sql, per).ok());
  CountLevelNodes(warm_per, &levels, &hits);
  EXPECT_EQ(hits, 8u);

  // APPEND a delta of existing keys: every level's entry is delta-merged in
  // place, so the next query is still all cache hits — and the merged
  // summaries must equal a from-scratch recompute over base+delta.
  const Table& base = *db.catalog().GetTable("f").value();
  Table delta(base.schema());
  for (size_t i = 0; i < 100; ++i) {
    delta.AppendRow({base.column(0).GetValue(i), base.column(1).GetValue(i),
                     base.column(2).GetValue(i), base.column(3).GetValue(i)});
  }
  QueryOptions merge;
  merge.append_policy = AppendPolicy::kMerge;
  Result<AppendOutcome> appended = db.AppendRows("f", delta, merge);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended.value().rows_appended, 100u);
  EXPECT_EQ(appended.value().summaries_merged, 8u);
  EXPECT_EQ(appended.value().summaries_recomputed, 0u);

  obs::QueryTrace after;
  opt.trace = &after;
  Result<Table> merged = db.Query(sql, opt);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  CountLevelNodes(after, &levels, &hits);
  EXPECT_EQ(levels, 8u);
  EXPECT_EQ(hits, 8u);

  PctDatabase fresh;
  Table full(base.schema());
  for (size_t i = 0; i < base.num_rows(); ++i) {
    full.AppendRow({base.column(0).GetValue(i), base.column(1).GetValue(i),
                    base.column(2).GetValue(i), base.column(3).GetValue(i)});
  }
  ASSERT_TRUE(fresh.CreateTable("f", std::move(full)).ok());
  Result<Table> recomputed = fresh.Query(sql);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_TRUE(BitIdentical(*merged, *recomputed));
}

TEST(LatticeCache, CoarserQueryReusesFinerLatticeEntries) {
  // A follow-up ROLLUP over a prefix of the CUBE's union hits the entries
  // the CUBE run already cached.
  PctDatabase db;
  db.EnableSummaryCache(true);
  ASSERT_TRUE(db.CreateTable("f", IntFact(2000, 11)).ok());
  ASSERT_TRUE(db.Query("SELECT d1, d2, sum(a) AS s FROM f "
                       "GROUP BY CUBE(d1, d2)")
                  .ok());
  obs::QueryTrace trace;
  QueryOptions opt;
  opt.trace = &trace;
  ASSERT_TRUE(db.Query("SELECT d1, d2, sum(a) AS s FROM f "
                       "GROUP BY ROLLUP(d1, d2)",
                       opt)
                  .ok());
  size_t levels = 0, hits = 0;
  CountLevelNodes(trace, &levels, &hits);
  EXPECT_EQ(levels, 3u);
  EXPECT_EQ(hits, 3u);
}

// --- EXPLAIN / EXPLAIN ANALYZE ----------------------------------------------

size_t CountOccurrences(const std::string& haystack, const std::string& what) {
  size_t count = 0;
  for (size_t pos = haystack.find(what); pos != std::string::npos;
       pos = haystack.find(what, pos + what.size())) {
    ++count;
  }
  return count;
}

TEST(LatticeExplain, SharedScanShowsOneFusedScanFeedingAllLevels) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(3000, 7)).ok());
  QueryOptions shared;
  shared.lattice = LatticeMode::kShared;
  Result<std::string> r = db.ExplainAnalyze(
      "SELECT d1, d2, d3, Vpct(a BY d3) AS pct, sum(a) AS s "
      "FROM f GROUP BY CUBE(d1, d2, d3)",
      shared);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& plan = r.value();
  EXPECT_NE(plan.find("lattice-shared"), std::string::npos) << plan;
  // The acceptance shape: exactly one fused scan of the fact table, with
  // every other level rolled up from an already-computed ancestor.
  EXPECT_EQ(CountOccurrences(plan, "fused-scan:"), 1u) << plan;
  EXPECT_EQ(CountOccurrences(plan, "lattice-rollup:"), 7u) << plan;
}

TEST(LatticeExplain, PerLevelModeScansOncePerLevel) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(3000, 7)).ok());
  QueryOptions per;
  per.lattice = LatticeMode::kPerLevel;
  Result<std::string> r = db.ExplainAnalyze(
      "SELECT d1, d2, d3, sum(a) AS s FROM f GROUP BY CUBE(d1, d2, d3)", per);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(CountOccurrences(r.value(), "fused-scan:"), 8u) << r.value();
  EXPECT_EQ(CountOccurrences(r.value(), "lattice-rollup:"), 0u) << r.value();
}

TEST(LatticeExplain, PlainExplainRendersLatticeScript) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(100, 3)).ok());
  Result<std::string> r = db.Explain(
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY CUBE(d1, d2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().find("grouping-set lattice:"), std::string::npos)
      << r.value();
  EXPECT_NE(r.value().find("4 level(s)"), std::string::npos) << r.value();
}

// --- Advisor and session plumbing -------------------------------------------

TEST(LatticeAdvisor, SharedWinsOnMultiLevelLattices) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(3000, 7)).ok());
  const PlannerStats fact = db.PlannerStatistics("f").value();
  Result<AnalyzedQuery> q = AnalyzeSql(
      "SELECT d1, d2, d3, sum(a) FROM f GROUP BY CUBE(d1, d2, d3)",
      FactSchema());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  StrategyAdvisor advisor;
  EXPECT_TRUE(advisor.AdviseLatticeShared(fact, q.value()));
  EXPECT_TRUE(advisor.AdviseLatticeShared(fact, q.value(), /*dop=*/4));
}

TEST(LatticeSession, SetLatticeOption) {
  Session s(1, 1000);
  Result<std::string> r = s.ApplySet("lattice shared");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "lattice = shared");
  EXPECT_EQ(s.query_options().lattice, LatticeMode::kShared);
  ASSERT_TRUE(s.ApplySet("lattice per_level").ok());
  EXPECT_EQ(s.query_options().lattice, LatticeMode::kPerLevel);
  EXPECT_NE(s.Describe().find("lattice = per-level"), std::string::npos);
  ASSERT_TRUE(s.ApplySet("lattice auto").ok());
  EXPECT_EQ(s.query_options().lattice, LatticeMode::kAuto);
  EXPECT_FALSE(s.ApplySet("lattice sideways").ok());
}

}  // namespace
}  // namespace pctagg
