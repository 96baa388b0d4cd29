// Tests for the grouping-set lattice (core/partial_plan.h): analyzer
// expansion of CUBE/ROLLUP/GROUPING SETS, hand-checked small-table results
// with Vpct/Hpct/GROUPING(), the LatticeSweep property suite asserting the
// shared-scan rollup is bit-identical to one single-level statement per
// level across dop {1, 4} (NULL keys, dictionary string keys, WHERE, the
// empty set ()), summary-cache reuse across lattice levels (including delta
// maintenance after an APPEND), and the EXPLAIN ANALYZE shape (one fused
// scan feeding every rollup).
//
// Integer measures keep double sums exact, so rollups and direct scans agree
// bitwise at every dop; float sums would differ by reassociation only (the
// standard cross-dop caveat — docs/PARALLELISM.md).
//
// The LatticeSweep suite doubles as the TSan target (`lattice_tsan` in
// tests/CMakeLists.txt): the shared path re-aggregates cached partials on
// the morsel pool while other levels compute concurrently-visible tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/advisor.h"
#include "core/database.h"
#include "core/partial_plan.h"
#include "engine/csv.h"
#include "engine/table_ops.h"
#include "obs/trace.h"
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
  EXPECT_FALSE(PartialPlanSupported(q1.value(), &why));
  EXPECT_NE(why.find("DISTINCT"), std::string::npos) << why;
  EXPECT_NE(why.find("grouping sets"), std::string::npos) << why;
  // One gate serves every shape: a plain grouped query is a one-level
  // lattice.
  Result<AnalyzedQuery> q2 =
      AnalyzeSql("SELECT d1, sum(a) FROM f GROUP BY d1", FactSchema());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(PartialPlanSupported(q2.value(), &why)) << why;
  // The supported shape passes.
  Result<AnalyzedQuery> q3 = AnalyzeSql(
      "SELECT d1, d2, Vpct(a BY d2), GROUPING(d1) FROM f GROUP BY CUBE(d1, d2)",
      FactSchema());
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_TRUE(PartialPlanSupported(q3.value(), &why)) << why;
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

// The forced-strategy shorthands are Query with the option set, as SET vpct,
// SET horizontal and the OLAP verb send it: a shape the forced option has no
// script for (grouping sets, a non-Vpct query under the OLAP baseline)
// answers bit-identically to the unforced Query.
TEST(LatticeQuery, ForcedStrategyShortcutsAnswerAsQueryDoes) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("t", TinyFact()).ok());
  const std::string cube =
      "SELECT a, b, Vpct(x BY b) FROM t GROUP BY CUBE(a, b)";
  const std::string rollup = "SELECT a, Hpct(x BY b) FROM t GROUP BY ROLLUP(a)";
  const std::string plain = "SELECT a, sum(x) AS s FROM t GROUP BY a";
  const std::vector<std::pair<std::string, Result<Table>>> forced = {
      {cube, db.QueryVpct(cube, VpctStrategy{})},
      {cube, db.QueryOlapBaseline(cube)},
      {rollup, db.QueryHorizontal(rollup, HorizontalStrategy{})},
      {plain, db.QueryOlapBaseline(plain)},
  };
  for (const auto& [sql, got] : forced) {
    SCOPED_TRACE(sql);
    Result<Table> want = db.Query(sql);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(FormatCsv(*got), FormatCsv(*want));
  }
}

// --- Shared-scan rollups vs single-level statements -------------------------

// "avg(a) AS m", "count(*) AS n", "sum(a BY d3 DEFAULT 0)": one term of a
// single-level statement. `by` replaces the term's BY list.
std::string RenderTerm(const AnalyzedTerm& t, const std::string& name,
                       const std::vector<std::string>& by) {
  std::string sql = StrFormat(
      "%s(%s", TermFuncName(t.func),
      t.argument == nullptr ? "*" : t.argument->ToString().c_str());
  if (!by.empty()) sql += " BY " + Join(by, ", ");
  if (t.has_default) sql += StrFormat(" DEFAULT %g", t.default_value);
  return sql + ") AS " + name;
}

// Runs `sql` at `dop` on the materialized plan the advisor picks for it; a
// plain aggregate has none and takes the partial path.
Result<Table> QueryMaterialized(const PctDatabase& db, const std::string& sql,
                                size_t dop) {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery q, db.PrepareQuery(sql));
  PCTAGG_ASSIGN_OR_RETURN(PlannerStats stats,
                          db.PlannerStatistics(q.table_name));
  QueryOptions options;
  options.degree_of_parallelism = dop;
  if (q.query_class == QueryClass::kVpct) {
    options.vpct_strategy = StrategyAdvisor().AdviseVpct(stats, q, dop);
  } else if (q.query_class == QueryClass::kHorizontal) {
    options.horizontal_strategy =
        StrategyAdvisor().AdviseHorizontal(stats, q, dop);
  }
  return db.Query(sql, options);
}

// The lattice's answer computed without rollups: one statement per grouping
// set, grouped by that level, with every Vpct BY list cut to the level and
// Vpct/Hpct/Hagg forced onto the materialized plans. Where every BY column is
// rolled away a Vpct is 100% of its own group: 1.0, or NULL for a NULL or
// zero sum. The blocks are shaped into the lattice's output and put through
// the same HAVING/ORDER BY/LIMIT.
Result<Table> SingleLevelReference(const PctDatabase& db,
                                   const std::string& sql, size_t dop) {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery q, db.PrepareQuery(sql));
  const bool horizontal = q.query_class == QueryClass::kHorizontal;
  auto in_level = [](const std::vector<std::string>& level,
                     const std::string& col) {
    for (const std::string& c : level) {
      if (c == col) return true;
    }
    return false;
  };
  struct Block {
    const std::vector<std::string>* level;
    Table result;
  };
  std::vector<Block> blocks;
  for (const std::vector<std::string>& level : q.grouping_sets) {
    std::vector<std::string> items = level;
    for (size_t ti = 0; ti < q.terms.size(); ++ti) {
      const AnalyzedTerm& t = q.terms[ti];
      const std::string name = StrFormat("t%zu", ti);
      if (t.func == TermFunc::kScalar || t.func == TermFunc::kGrouping) {
        continue;
      }
      std::vector<std::string> by = t.by_columns;
      if (t.func == TermFunc::kVpct) {
        by.clear();
        for (const std::string& c : t.by_columns) {
          if (in_level(level, c)) by.push_back(c);
        }
        const bool unit = level.empty() || (t.has_by && by.empty());
        if (unit) {
          AnalyzedTerm sum = t;
          sum.func = TermFunc::kSum;
          items.push_back(RenderTerm(sum, name, {}));
          continue;
        }
      }
      items.push_back(RenderTerm(t, name, by));
    }
    std::string stmt = "SELECT " + Join(items, ", ") + " FROM " + q.table_name;
    if (q.where != nullptr) stmt += " WHERE " + q.where->ToString();
    if (!level.empty()) stmt += " GROUP BY " + Join(level, ", ");
    Result<Table> r = QueryMaterialized(db, stmt, dop);
    if (!r.ok()) return Status::Internal(stmt + ": " + r.status().ToString());
    blocks.push_back({&level, std::move(*r)});
  }

  // The union of the pivot columns in first-appearance order (horizontal).
  std::vector<std::string> pivots;
  std::vector<DataType> pivot_types;
  if (horizontal) {
    for (const Block& b : blocks) {
      for (size_t c = 0; c < b.result.num_columns(); ++c) {
        const ColumnDef& def = b.result.schema().column(c);
        const bool term = def.name.rfind("t", 0) == 0 &&
                          def.name.find('=') == std::string::npos;
        if (in_level(*b.level, def.name) || term ||
            std::find(pivots.begin(), pivots.end(), def.name) !=
                pivots.end()) {
          continue;
        }
        pivots.push_back(def.name);
        pivot_types.push_back(def.type);
      }
    }
  }

  Table expected;
  for (const Block& b : blocks) {
    const Table& r = b.result;
    const size_t n = r.num_rows();
    Table block;
    auto add = [&block](const std::string& name, Column col) {
      const DataType type = col.type();
      return block.AddColumn({name, type}, std::move(col));
    };
    auto scalar = [&](const std::string& col, const std::string& name) {
      if (in_level(*b.level, col)) return add(name, *r.ColumnByName(col).value());
      Column nulls(q.schema.column(q.schema.FindColumn(col).value()).type);
      for (size_t i = 0; i < n; ++i) nulls.AppendNull();
      return add(name, std::move(nulls));
    };
    auto grouping = [&](const std::string& col, const std::string& name) {
      Column ids(DataType::kInt64);
      for (size_t i = 0; i < n; ++i) ids.AppendInt64(in_level(*b.level, col) ? 0 : 1);
      return add(name, std::move(ids));
    };
    if (horizontal) {
      for (const std::string& g : q.group_by) {
        PCTAGG_RETURN_IF_ERROR(scalar(g, g));
      }
      for (const AnalyzedTerm& t : q.terms) {
        if (t.func == TermFunc::kGrouping) {
          PCTAGG_RETURN_IF_ERROR(grouping(t.scalar_column, t.output_name));
        }
      }
      for (size_t p = 0; p < pivots.size(); ++p) {
        Result<const Column*> col = r.ColumnByName(pivots[p]);
        if (col.ok()) {
          PCTAGG_RETURN_IF_ERROR(add(pivots[p], **col));
          continue;
        }
        Column fill(pivot_types[p]);
        for (size_t i = 0; i < n; ++i) fill.AppendNull();
        PCTAGG_RETURN_IF_ERROR(add(pivots[p], std::move(fill)));
      }
    }
    for (size_t ti = 0; ti < q.terms.size(); ++ti) {
      const AnalyzedTerm& t = q.terms[ti];
      const std::string name = StrFormat("t%zu", ti);
      if (t.func == TermFunc::kScalar) {
        if (!horizontal) {
          PCTAGG_RETURN_IF_ERROR(scalar(t.scalar_column, t.output_name));
        }
      } else if (t.func == TermFunc::kGrouping) {
        if (!horizontal) {
          PCTAGG_RETURN_IF_ERROR(grouping(t.scalar_column, t.output_name));
        }
      } else if (horizontal && t.has_by) {
        continue;  // the pivot columns above
      } else {
        PCTAGG_ASSIGN_OR_RETURN(const Column* col, r.ColumnByName(name));
        if (t.func == TermFunc::kVpct && col->type() != DataType::kFloat64) {
          // A sum standing in for a Vpct whose BY columns are all rolled
          // away: each group is 100% of itself.
          Column unit(DataType::kFloat64);
          for (size_t i = 0; i < n; ++i) {
            if (col->IsNull(i) || col->NumericAt(i) == 0.0) {
              unit.AppendNull();
            } else {
              unit.AppendFloat64(1.0);
            }
          }
          PCTAGG_RETURN_IF_ERROR(add(t.output_name, std::move(unit)));
        } else {
          PCTAGG_RETURN_IF_ERROR(add(t.output_name, *col));
        }
      }
    }
    if (expected.num_columns() == 0) {
      expected = std::move(block);
    } else {
      PCTAGG_RETURN_IF_ERROR(InsertInto(&expected, block));
    }
  }
  return ApplyQueryTail(std::move(expected), q);
}

// Runs the grouping-set `sql` at `dop` and checks it bit for bit against the
// single-level statements.
void ExpectLatticeMatchesSingleLevels(const PctDatabase& db,
                                      const std::string& sql, size_t dop) {
  SCOPED_TRACE(sql + " @ dop=" + std::to_string(dop));
  obs::QueryTrace trace;
  QueryOptions options;
  options.degree_of_parallelism = dop;
  options.trace = &trace;
  Result<Table> got = db.Query(sql, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(trace.strategy, "partial from fused scan");
  Result<Table> want = SingleLevelReference(db, sql, dop);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(BitIdentical(*got, *want));
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
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT d1, d2, d3, Vpct(a BY d3) AS pct, sum(a) AS s, "
      "GROUPING(d2) AS g2 FROM f GROUP BY CUBE(d1, d2, d3)",
      GetParam());
}

TEST_P(LatticeSweep, CubeVerticalAggregatesWithAvg) {
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT d1, d2, avg(a) AS m, min(a) AS lo, max(a) AS hi, "
      "count(a) AS c, count(*) AS n FROM f GROUP BY CUBE(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, RollupStringDictionaryKeys) {
  // String group keys exercise the dictionary-code path; itemId is INT64 so
  // sums stay exact.
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT state, city, Vpct(itemId BY state) AS pct, sum(itemId) AS s "
      "FROM salesn GROUP BY ROLLUP(state, city)",
      GetParam());
}

TEST_P(LatticeSweep, GroupingSetsWithEmptySet) {
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT d1, d2, d3, sum(a) AS s, GROUPING(d1) AS g1, "
      "GROUPING(d3) AS g3 FROM f "
      "GROUP BY GROUPING SETS ((d1, d2), (d3), ())",
      GetParam());
}

TEST_P(LatticeSweep, CubeWithWhereClause) {
  // A WHERE clause disables the summary cache for the lattice; both modes
  // must filter before aggregating.
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f WHERE d3 >= 1 "
      "GROUP BY CUBE(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, CubeWhereMatchesNothing) {
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT d1, sum(a) AS s, count(*) AS c FROM f WHERE d3 = 99 "
      "GROUP BY CUBE(d1)",
      GetParam());
}

TEST_P(LatticeSweep, RollupHorizontalPct) {
  ExpectLatticeMatchesSingleLevels(
      db_,
      "SELECT d1, d2, Hpct(a BY d3), count(*) AS c FROM f "
      "GROUP BY ROLLUP(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, CubeHorizontalAggWithDefault) {
  ExpectLatticeMatchesSingleLevels(
      db_, "SELECT d1, d2, sum(a BY d3 DEFAULT 0) FROM f GROUP BY CUBE(d1, d2)",
      GetParam());
}

TEST_P(LatticeSweep, RollupWithHavingOrderLimit) {
  ExpectLatticeMatchesSingleLevels(
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

  // Warm run: every level is a cache hit.
  obs::QueryTrace warm;
  opt.trace = &warm;
  ASSERT_TRUE(db.Query(sql, opt).ok());
  CountLevelNodes(warm, &levels, &hits);
  EXPECT_EQ(levels, 8u);
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
  Result<std::string> r = db.ExplainAnalyze(
      "SELECT d1, d2, d3, Vpct(a BY d3) AS pct, sum(a) AS s "
      "FROM f GROUP BY CUBE(d1, d2, d3)",
      QueryOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& plan = r.value();
  EXPECT_NE(plan.find("strategy: partial from fused scan"), std::string::npos)
      << plan;
  // The acceptance shape: exactly one fused scan of the fact table, with
  // every other level rolled up from an already-computed ancestor.
  EXPECT_EQ(CountOccurrences(plan, "fused-scan:"), 1u) << plan;
  EXPECT_EQ(CountOccurrences(plan, "lattice-rollup:"), 7u) << plan;
}

TEST(LatticeExplain, PlainExplainRendersLatticeScript) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(100, 3)).ok());
  Result<std::string> r = db.Explain(
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY CUBE(d1, d2)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().find("-- strategy: partial from fused scan (n/a)"),
            std::string::npos)
      << r.value();
  EXPECT_NE(r.value().find("4 level(s)"), std::string::npos) << r.value();
}

}  // namespace
}  // namespace pctagg
