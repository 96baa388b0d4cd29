// Property sweep for the fused push-based percentage pipelines: every query
// runs twice — on the partial path (QueryPartial) and on the materialized
// plan the advisor picks at that dop — and the results must be
// bit-identical (exact value bits, including FLOAT64), across dop {1,4},
// NULL keys, numeric and string/dictionary group keys, WHERE clauses,
// multi-term Vpct with lattice reuse, grand totals, and the horizontal
// variants with extras. Float measures stay under one morsel (<= 16384 rows)
// so the fold order is pinned at every dop; the large-input sweep uses an
// INT64 measure, whose double sums are exact regardless of morsel shape.
//
// The plain GROUP BY sweep and KernelOracle check the one aggregation kernel
// (HashAggregate: every keying tier, with and without a WHERE mask) against
// a row-at-a-time reference, OracleAggregate.
//
// The same suite doubles as the SIMD/scalar equivalence check: see the
// SimdVsScalar tests here plus the `pipeline_test_scalar` ctest variant
// (PCTAGG_DISABLE_SIMD=1) and the `fused_tsan` target in tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/advisor.h"
#include "core/database.h"
#include "engine/aggregate.h"
#include "engine/pipeline.h"
#include "engine/table_ops.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

// d1(4) x d2(5) x d3(3) with ~10% NULL d2 keys; INT64 measure in [1, 100]
// with ~8% NULLs. Integer measures keep double sums exact, so fused and
// materialized agree bitwise at every dop and morsel shape.
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

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Exact-equality comparison: same schema, same row count, and every cell
// matches bit-for-bit (doubles compared by bit pattern, so NaN payloads and
// signed zeros count too).
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

// `options` with the materialized plan the advisor picks for the Vpct or
// horizontal `sql` at `dop` forced.
QueryOptions Materialized(const PctDatabase& db, const std::string& sql,
                          size_t dop, QueryOptions options = QueryOptions()) {
  options.degree_of_parallelism = dop;
  Result<AnalyzedQuery> q = db.PrepareQuery(sql);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return options;
  const PlannerStats stats = db.PlannerStatistics(q->table_name).value();
  if (q->query_class == QueryClass::kVpct) {
    options.vpct_strategy = StrategyAdvisor().AdviseVpct(stats, *q, dop);
  } else if (q->query_class == QueryClass::kHorizontal) {
    options.horizontal_strategy =
        StrategyAdvisor().AdviseHorizontal(stats, *q, dop);
  }
  return options;
}

// Runs `sql` on the partial path and on the advisor's materialized plan at
// `dop` and checks bit-identity; the trace shows the partial path ran.
void ExpectFusedMatchesMaterialized(const PctDatabase& db,
                                    const std::string& sql, size_t dop) {
  SCOPED_TRACE(sql + " @ dop=" + std::to_string(dop));
  obs::QueryTrace trace;
  QueryOptions fused;
  fused.degree_of_parallelism = dop;
  fused.trace = &trace;
  Result<Table> rf = db.QueryPartial(sql, fused);
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  EXPECT_EQ(trace.strategy, "partial from fused scan");
  EXPECT_EQ(trace.strategy_source, "forced");

  Result<Table> rm = db.Query(sql, Materialized(db, sql, dop));
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  EXPECT_TRUE(BitIdentical(*rf, *rm));
}

// --- Bit-identity sweep across dop {1, 4} -----------------------------------

class PipelineSweep : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("f", IntFact(3000, 7)).ok());
    ASSERT_TRUE(db_.CreateTable("sales", GenerateSales(4000)).ok());
    ASSERT_TRUE(db_.CreateTable("salesn", GenerateSalesNamed(4000)).ok());
  }
  PctDatabase db_;
};

TEST_P(PipelineSweep, VpctSimple) {
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2",
      GetParam());
}

TEST_P(PipelineSweep, VpctSingleKeyDirectDictTier) {
  // One INT64 group column exercises the direct/inline key tier.
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, Vpct(a) AS pct FROM f GROUP BY d1", GetParam());
}

TEST_P(PipelineSweep, VpctMultiTermLatticeAndGrandTotal) {
  // p1 reuses p2's finer level through the lattice; p3 is a grand total;
  // s rides along as a scalar extra. Three group columns force packed keys.
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT d1, d2, d3, Vpct(a BY d3) AS p1, Vpct(a BY d2, d3) AS p2, "
      "Vpct(a) AS p3, sum(a) AS s FROM f GROUP BY d1, d2, d3",
      GetParam());
}

TEST_P(PipelineSweep, VpctWithWhere) {
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f WHERE d3 = 1 "
      "GROUP BY d1, d2",
      GetParam());
}

TEST_P(PipelineSweep, VpctWhereMatchesNothing) {
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f WHERE d3 = 99 "
      "GROUP BY d1, d2",
      GetParam());
}

TEST_P(PipelineSweep, VpctFloatMeasureNumericKeys) {
  // FLOAT64 measure: 4000 rows fit in one morsel at every dop, pinning the
  // accumulation order, so even float sums are bit-identical.
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT state, city, Vpct(salesAmt BY state) AS pct FROM sales "
      "GROUP BY state, city",
      GetParam());
}

TEST_P(PipelineSweep, VpctStringDictionaryKeys) {
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT state, city, Vpct(salesAmt BY state) AS pct FROM salesn "
      "GROUP BY state, city",
      GetParam());
}

TEST_P(PipelineSweep, VpctOrderByAndHaving) {
  // ApplyTail (HAVING/ORDER BY/LIMIT) runs after both paths' result tables.
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2 "
      "HAVING pct >= 0.1 ORDER BY d1, d2 LIMIT 12",
      GetParam());
}

TEST_P(PipelineSweep, HpctSimple) {
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", GetParam());
}

TEST_P(PipelineSweep, HpctTwoByColumns) {
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, Hpct(a BY d2, d3) FROM f GROUP BY d1", GetParam());
}

TEST_P(PipelineSweep, HpctGlobalNoGroupBy) {
  ExpectFusedMatchesMaterialized(db_, "SELECT Hpct(a BY d2) FROM f",
                                 GetParam());
}

TEST_P(PipelineSweep, HpctGlobalWithWhere) {
  ExpectFusedMatchesMaterialized(
      db_, "SELECT Hpct(a BY d2) FROM f WHERE d3 = 1", GetParam());
}

TEST_P(PipelineSweep, HpctStringKeysWithWhere) {
  // Hpct(1 ...) makes the measure an exact integer count. A float measure
  // would not be bitwise here: the fused pipeline folds per-combination
  // partials from FVh while CASE-from-F folds raw rows, and float addition
  // is not associative (same boundary as cross-dop sums; docs/PARALLELISM.md).
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT state, Hpct(1 BY dweek) FROM salesn "
      "WHERE city <> 'city03' GROUP BY state",
      GetParam());
}

TEST_P(PipelineSweep, HaggSumWithDefaultZero) {
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, sum(a BY d2 DEFAULT 0) FROM f GROUP BY d1", GetParam());
}

TEST_P(PipelineSweep, HaggCountMinMax) {
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, count(a BY d2) FROM f GROUP BY d1", GetParam());
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, max(a BY d3) FROM f GROUP BY d1", GetParam());
  ExpectFusedMatchesMaterialized(
      db_, "SELECT d1, min(a BY d3 DEFAULT 0) FROM f GROUP BY d1", GetParam());
}

TEST_P(PipelineSweep, HaggWithExtrasIncludingAvg) {
  // Plain aggregates alongside the horizontal term: the fused pipeline
  // decomposes avg into sum+count partials over FVh and must still match the
  // materialized plan's direct kAvg, including its NULL semantics.
  ExpectFusedMatchesMaterialized(
      db_,
      "SELECT d1, sum(a BY d2 DEFAULT 0), sum(a) AS s, count(*) AS n, "
      "avg(a) AS m FROM f GROUP BY d1",
      GetParam());
}

TEST_P(PipelineSweep, LargeInputIntMeasure) {
  // 50k rows split into several adaptive morsels at dop=4; the INT64 measure
  // keeps partial sums exact so the cross-shape comparison stays bitwise.
  PctDatabase big;
  ASSERT_TRUE(big.CreateTable("f", IntFact(50000, 11)).ok());
  ExpectFusedMatchesMaterialized(
      big,
      "SELECT d1, d2, Vpct(a BY d2) AS pct, sum(a) AS s FROM f "
      "GROUP BY d1, d2",
      GetParam());
  ExpectFusedMatchesMaterialized(
      big, "SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Dop, PipelineSweep, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "dop" + std::to_string(info.param);
                         });

// --- Row-at-a-time reference for the aggregation kernel --------------------

// One row's group key: each key Value as a tagged string (doubles by bit
// pattern), NULL distinct from every value.
std::vector<std::string> OracleKey(const Table& t,
                                   const std::vector<size_t>& cols,
                                   size_t row) {
  std::vector<std::string> key;
  for (size_t c : cols) {
    const Value v = t.column(c).GetValue(row);
    if (v.is_null()) {
      key.push_back("N");
    } else if (v.is_int64()) {
      key.push_back(StrFormat("I%lld", static_cast<long long>(v.int64())));
    } else if (v.is_float64()) {
      key.push_back(StrFormat("F%016llx", static_cast<unsigned long long>(
                                              DoubleBits(v.float64()))));
    } else {
      key.push_back(StrFormat("S%s", v.string().c_str()));
    }
  }
  return key;
}

// x < y for two non-NULL Values of one type.
bool OracleLess(const Value& x, const Value& y) {
  if (x.is_int64()) return x.int64() < y.int64();
  if (x.is_float64()) return x.float64() < y.float64();
  return x.string() < y.string();
}

// An independent GROUP BY: a std::map over each row's key Values assigns
// groups in first-seen order, and every aggregate folds one Value at a time —
// INT64 sums wrapping, FLOAT64 sums in row order, extremes by Value
// comparison. No morsels, keying tiers or partial merges, so it checks the
// kernel rather than agreeing with it by construction. (FLOAT64 sums match
// the kernel bitwise only when every partial sum is exact, as in the tests
// below.)
Result<Table> OracleAggregate(const Table& f, const ExprPtr& where,
                              const std::vector<std::string>& group_by,
                              const std::vector<AggSpec>& aggs) {
  Table input = f;
  if (where != nullptr) {
    PCTAGG_ASSIGN_OR_RETURN(input, Filter(f, where));
  }
  std::vector<size_t> key_idx;
  Schema out_schema;
  for (const std::string& name : group_by) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    key_idx.push_back(idx);
    out_schema.AddColumn(input.schema().column(idx));
  }
  std::vector<Column> args;
  for (const AggSpec& a : aggs) {
    if (a.func == AggFunc::kCountStar) {
      args.emplace_back(DataType::kInt64);
      out_schema.AddColumn({a.output_name, DataType::kInt64});
      continue;
    }
    PCTAGG_ASSIGN_OR_RETURN(Column c, a.input->Evaluate(input));
    DataType t = c.type();
    if (a.func == AggFunc::kCount) t = DataType::kInt64;
    if (a.func == AggFunc::kAvg) t = DataType::kFloat64;
    out_schema.AddColumn({a.output_name, t});
    args.push_back(std::move(c));
  }
  struct Acc {
    int64_t rows = 0;
    int64_t count = 0;
    uint64_t isum = 0;
    double dsum = 0.0;
    Value ext;  // min/max so far; NULL until the first value
  };
  std::map<std::vector<std::string>, size_t> index;
  std::vector<size_t> first_row;
  std::vector<std::vector<Acc>> accs;
  for (size_t row = 0; row < input.num_rows(); ++row) {
    auto [it, inserted] =
        index.emplace(OracleKey(input, key_idx, row), first_row.size());
    if (inserted) {
      first_row.push_back(row);
      accs.emplace_back(aggs.size());
    }
    std::vector<Acc>& g = accs[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = g[a];
      acc.rows++;
      if (aggs[a].func == AggFunc::kCountStar || args[a].IsNull(row)) continue;
      const Value v = args[a].GetValue(row);
      acc.count++;
      if (v.is_int64()) {
        acc.isum += static_cast<uint64_t>(v.int64());
        acc.dsum += static_cast<double>(v.int64());
      } else if (v.is_float64()) {
        acc.dsum += v.float64();
      }
      const bool is_min = aggs[a].func == AggFunc::kMin;
      const Value& lo = is_min ? v : acc.ext;
      const Value& hi = is_min ? acc.ext : v;
      if (acc.ext.is_null() || OracleLess(lo, hi)) acc.ext = v;
    }
  }
  if (group_by.empty() && first_row.empty()) {
    first_row.push_back(0);
    accs.emplace_back(aggs.size());
  }
  Table out(out_schema);
  for (size_t g = 0; g < first_row.size(); ++g) {
    std::vector<Value> row;
    row.reserve(key_idx.size() + aggs.size());
    for (size_t c : key_idx) {
      row.push_back(input.column(c).GetValue(first_row[g]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[g][a];
      switch (aggs[a].func) {
        case AggFunc::kCountStar:
          row.push_back(Value::Int64(acc.rows));
          break;
        case AggFunc::kCount:
          row.push_back(Value::Int64(acc.count));
          break;
        case AggFunc::kSum:
          if (acc.count == 0) {
            row.push_back(Value::Null());
          } else if (args[a].type() == DataType::kInt64) {
            row.push_back(Value::Int64(static_cast<int64_t>(acc.isum)));
          } else {
            row.push_back(Value::Float64(acc.dsum));
          }
          break;
        case AggFunc::kAvg:
          if (acc.count == 0) {
            row.push_back(Value::Null());
          } else {
            row.push_back(Value::Float64(acc.dsum / acc.count));
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          row.push_back(acc.ext);
          break;
      }
    }
    PCTAGG_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

// --- Plain GROUP BY on the fused scan ---------------------------------------

// A plain GROUP BY and the pieces of its pre-fusion evaluation: Filter(f,
// where), then HashAggregate, then the projection to SELECT order.
struct PlainGroupBy {
  std::string sql;
  std::string table;
  ExprPtr where;  // null: no WHERE
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
  std::vector<std::string> select;  // output names in SELECT order
};

Result<Table> FilterThenHashAggregate(const Table& f, const PlainGroupBy& q,
                                      size_t dop) {
  Table input = f;
  if (q.where != nullptr) {
    PCTAGG_ASSIGN_OR_RETURN(input, Filter(f, q.where));
  }
  PCTAGG_ASSIGN_OR_RETURN(Table agg,
                          HashAggregate(input, q.group_by, q.aggs, dop));
  std::vector<ProjectSpec> specs;
  for (const std::string& name : q.select) specs.push_back({Col(name), name});
  return Project(agg, specs);
}

// The first trace node labelled `label`, depth first.
const obs::TraceNode* FindNode(const obs::TraceNode& node,
                               const std::string& label) {
  if (node.label == label) return &node;
  for (const auto& child : node.children) {
    if (const obs::TraceNode* found = FindNode(*child, label)) return found;
  }
  return nullptr;
}

class PlainGroupBySweep : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("f", IntFact(3000, 53)).ok());
    ASSERT_TRUE(db_.CreateTable("big", IntFact(50000, 59)).ok());
    ASSERT_TRUE(db_.CreateTable("salesn", GenerateSalesNamed(4000)).ok());
  }

  // PctDatabase::Query must run `q` as one fused mask scan and answer
  // bit-identically to Filter -> HashAggregate at the same dop (the
  // selection-list and contiguous loops of the one kernel) and to the
  // row-at-a-time oracle.
  void ExpectMatchesFilterThenHashAggregate(const PlainGroupBy& q) {
    const size_t dop = GetParam();
    SCOPED_TRACE(q.sql + " @ dop=" + std::to_string(dop));
    obs::QueryTrace trace;
    QueryOptions options;
    options.degree_of_parallelism = dop;
    options.trace = &trace;
    Result<Table> got = db_.Query(q.sql, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const obs::TraceNode* agg = FindNode(trace.root(), "aggregate");
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->detail.rfind("keys=", 0), 0u) << agg->detail;
    EXPECT_EQ(agg->detail.find("+where") != std::string::npos,
              q.where != nullptr)
        << agg->detail;
    if (q.where != nullptr) {
      const obs::TraceNode* filter = FindNode(trace.root(), "filter");
      ASSERT_NE(filter, nullptr);
      EXPECT_EQ(filter->detail, "fused mask");
    }
    Result<Table*> f = db_.catalog().GetTable(q.table);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    Result<Table> want = FilterThenHashAggregate(**f, q, dop);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_TRUE(BitIdentical(*got, *want));
    Result<Table> oracle = OracleAggregate(**f, q.where, q.group_by, q.aggs);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    std::vector<ProjectSpec> specs;
    for (const std::string& name : q.select) specs.push_back({Col(name), name});
    Result<Table> projected = Project(*oracle, specs);
    ASSERT_TRUE(projected.ok()) << projected.status().ToString();
    EXPECT_TRUE(BitIdentical(*got, *projected));
  }

  PctDatabase db_;
};

// Every aggregate the plain GROUP BY accepts, over NULL group keys (d2) and
// an INT64 measure with NULLs (a).
std::vector<AggSpec> AllAggs() {
  return {{AggFunc::kSum, Col("a"), "s"},
          {AggFunc::kCountStar, nullptr, "n"},
          {AggFunc::kCount, Col("a"), "c"},
          {AggFunc::kAvg, Col("a"), "m"},
          {AggFunc::kMin, Col("a"), "lo"},
          {AggFunc::kMax, Col("a"), "hi"}};
}

TEST_P(PlainGroupBySweep, FilteredGroupByWithNullKeys) {
  for (const char* table : {"f", "big"}) {
    ExpectMatchesFilterThenHashAggregate(
        {std::string("SELECT d1, d2, sum(a) AS s, count(*) AS n, "
                     "count(a) AS c, avg(a) AS m, min(a) AS lo, max(a) AS hi "
                     "FROM ") +
             table + " WHERE d3 <> 1 AND a > 20 GROUP BY d1, d2",
         table,
         And(Ne(Col("d3"), Lit(Value::Int64(1))),
             Gt(Col("a"), Lit(Value::Int64(20)))),
         {"d1", "d2"},
         AllAggs(),
         {"d1", "d2", "s", "n", "c", "m", "lo", "hi"}});
  }
}

TEST_P(PlainGroupBySweep, UnfilteredAndReorderedSelectList) {
  ExpectMatchesFilterThenHashAggregate(
      {"SELECT sum(a) AS s, d3, count(*) AS n, d1 FROM big GROUP BY d1, d3",
       "big",
       nullptr,
       {"d1", "d3"},
       {{AggFunc::kSum, Col("a"), "s"}, {AggFunc::kCountStar, nullptr, "n"}},
       {"s", "d3", "n", "d1"}});
  ExpectMatchesFilterThenHashAggregate(
      {"SELECT d2, min(a) AS lo, max(a) AS hi FROM f "
       "WHERE d2 IS NULL OR d1 = 3 GROUP BY d2",
       "f",
       Or(IsNull(Col("d2")), Eq(Col("d1"), Lit(Value::Int64(3)))),
       {"d2"},
       {{AggFunc::kMin, Col("a"), "lo"}, {AggFunc::kMax, Col("a"), "hi"}},
       {"d2", "lo", "hi"}});
}

TEST_P(PlainGroupBySweep, DictionaryStringKeys) {
  ExpectMatchesFilterThenHashAggregate(
      {"SELECT state, city, count(*) AS n, sum(itemId) AS s, "
       "min(dweek) AS first_day FROM salesn WHERE dept <> 2 "
       "GROUP BY state, city",
       "salesn",
       Ne(Col("dept"), Lit(Value::Int64(2))),
       {"state", "city"},
       {{AggFunc::kCountStar, nullptr, "n"},
        {AggFunc::kSum, Col("itemId"), "s"},
        {AggFunc::kMin, Col("dweek"), "first_day"}},
       {"state", "city", "n", "s", "first_day"}});
  // One small-dictionary string key: the direct-dictionary keying tier.
  ExpectMatchesFilterThenHashAggregate(
      {"SELECT state, avg(itemId) AS m FROM salesn WHERE city <> 'city03' "
       "GROUP BY state",
       "salesn",
       Ne(Col("city"), Lit(Value::String("city03"))),
       {"state"},
       {{AggFunc::kAvg, Col("itemId"), "m"}},
       {"state", "m"}});
}

TEST_P(PlainGroupBySweep, WhereThatKeepsNoRows) {
  ExpectMatchesFilterThenHashAggregate(
      {"SELECT d1, sum(a) AS s, count(*) AS n FROM big WHERE d3 > 99 "
       "GROUP BY d1",
       "big",
       Gt(Col("d3"), Lit(Value::Int64(99))),
       {"d1"},
       {{AggFunc::kSum, Col("a"), "s"}, {AggFunc::kCountStar, nullptr, "n"}},
       {"d1", "s", "n"}});
  // Without GROUP BY the answer is still one row: a NULL sum and count 0.
  const PlainGroupBy global = {
      "SELECT sum(a) AS s, count(*) AS n, count(a) AS c FROM big "
      "WHERE d3 > 99",
      "big",
      Gt(Col("d3"), Lit(Value::Int64(99))),
      {},
      {{AggFunc::kSum, Col("a"), "s"},
       {AggFunc::kCountStar, nullptr, "n"},
       {AggFunc::kCount, Col("a"), "c"}},
      {"s", "n", "c"}};
  ExpectMatchesFilterThenHashAggregate(global);
  QueryOptions options;
  options.degree_of_parallelism = GetParam();
  Result<Table> r = db_.Query(global.sql, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_TRUE(r->column(0).IsNull(0));
  EXPECT_EQ(r->column(1).Int64At(0), 0);
  EXPECT_EQ(r->column(2).Int64At(0), 0);
}

INSTANTIATE_TEST_SUITE_P(Dop, PlainGroupBySweep, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "dop" + std::to_string(info.param);
                         });

// --- Every keying tier against the oracle ------------------------------------

// d1(4) x d2(5, ~10% NULL) x d3(3) plus a small-dictionary string key k
// (~10% NULL); measures a (INT64 [1,100]), w (INT64 near INT64_MAX, so its
// sums wrap), x (FLOAT64 quarters, so every partial sum is exact) and s
// (STRING), each ~8% NULL.
Table OracleFact(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"d3", DataType::kInt64},
                  {"k", DataType::kString},
                  {"a", DataType::kInt64},
                  {"w", DataType::kInt64},
                  {"x", DataType::kFloat64},
                  {"s", DataType::kString}}));
  auto maybe_null = [&rng](Value v, size_t one_in) {
    return rng.Uniform(one_in) == 0 ? Value::Null() : v;
  };
  const int64_t kBig = std::numeric_limits<int64_t>::max() - 100;
  for (size_t i = 0; i < n; ++i) {
    const auto u = [&rng](uint64_t m) {
      return static_cast<int64_t>(rng.Uniform(m));
    };
    const std::string k = StrFormat("k%d", static_cast<int>(u(6)));
    const std::string s = StrFormat("s%d", static_cast<int>(u(40)));
    const double x = static_cast<double>(u(1000)) / 4;
    t.AppendRow({Value::Int64(u(4)), maybe_null(Value::Int64(u(5)), 10),
                 Value::Int64(u(3)), maybe_null(Value::String(k), 10),
                 maybe_null(Value::Int64(u(100) + 1), 12),
                 maybe_null(Value::Int64(kBig + u(100)), 12),
                 maybe_null(Value::Float64(x), 12),
                 maybe_null(Value::String(s), 12)});
  }
  return t;
}

class KernelOracle : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelOracle, EveryTierMatchesRowAtATimeReference) {
  const Table f = OracleFact(50000, 67);
  const std::vector<AggSpec> aggs = {
      {AggFunc::kSum, Col("a"), "sa"},   {AggFunc::kCountStar, nullptr, "n"},
      {AggFunc::kCount, Col("a"), "ca"}, {AggFunc::kAvg, Col("a"), "ma"},
      {AggFunc::kMin, Col("a"), "loa"},  {AggFunc::kMax, Col("a"), "hia"},
      {AggFunc::kSum, Col("w"), "sw"},   {AggFunc::kMin, Col("w"), "low"},
      {AggFunc::kMax, Col("w"), "hiw"},  {AggFunc::kSum, Col("x"), "sx"},
      {AggFunc::kAvg, Col("x"), "mx"},   {AggFunc::kMin, Col("x"), "lox"},
      {AggFunc::kMax, Col("x"), "hix"},  {AggFunc::kCount, Col("s"), "cs"},
      {AggFunc::kMin, Col("s"), "los"},  {AggFunc::kMax, Col("s"), "his"}};
  const struct {
    std::vector<std::string> cols;
    std::string tier;  // the aggregate trace node's detail prefix
  } tiers[] = {{{"k"}, "keys=direct-dict("},
               {{}, "keys=inline(0x8B)"},
               {{"d2"}, "keys=inline(1x8B)"},
               {{"d1", "k"}, "keys=inline(2x8B)"},
               {{"d1", "d2", "d3"}, "keys=packed("}};
  const ExprPtr wheres[] = {
      nullptr, Or(Gt(Col("a"), Lit(Value::Int64(30))), IsNull(Col("k")))};
  for (const auto& tier : tiers) {
    for (const ExprPtr& where : wheres) {
      SCOPED_TRACE(tier.tier + (where != nullptr ? " +where" : "") +
                   " @ dop=" + std::to_string(GetParam()));
      obs::QueryTrace trace;
      Result<Table> got = Status::Internal("not run");
      {
        obs::ScopedTraceNode scope(&trace.root());
        got = HashAggregate(f, tier.cols, aggs, GetParam(), where);
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const obs::TraceNode* agg = FindNode(trace.root(), "aggregate");
      ASSERT_NE(agg, nullptr);
      EXPECT_EQ(agg->detail.rfind(tier.tier, 0), 0u) << agg->detail;
      Result<Table> want = OracleAggregate(f, where, tier.cols, aggs);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_TRUE(BitIdentical(*got, *want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dop, KernelOracle, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "dop" + std::to_string(info.param);
                         });

// --- SIMD vs scalar ----------------------------------------------------------

class PipelineSimd : public ::testing::Test {
 protected:
  void TearDown() override { internal::ResetSimdEnabledForTest(); }
};

TEST_F(PipelineSimd, MaskedAggregateMatchesScalarFallback) {
  Table f = IntFact(20000, 23);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col("a"), "s"});
  aggs.push_back({AggFunc::kCount, Col("a"), "n"});
  ExprPtr where = Eq(Col("d3"), Lit(Value::Int64(1)));

  internal::SetSimdEnabledForTest(true);
  Result<Table> vec = HashAggregate(f, {"d1", "d2"}, aggs, 4, where);
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();

  internal::SetSimdEnabledForTest(false);
  Result<Table> scalar = HashAggregate(f, {"d1", "d2"}, aggs, 4, where);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();

  EXPECT_TRUE(BitIdentical(*vec, *scalar));
}

TEST_F(PipelineSimd, WhereMaskMatchesFilterThenHashAggregate) {
  // The selection-list loop (WHERE mask) against the contiguous loop over
  // Filter's copy, and both against the oracle.
  Table f = IntFact(20000, 29);
  std::vector<AggSpec> aggs;
  aggs.push_back({AggFunc::kSum, Col("a"), "s"});
  aggs.push_back({AggFunc::kCountStar, nullptr, "n"});
  ExprPtr where = Gt(Col("a"), Lit(Value::Int64(40)));

  Result<Table> masked = HashAggregate(f, {"d1", "d2", "d3"}, aggs, 1, where);
  ASSERT_TRUE(masked.ok()) << masked.status().ToString();

  Result<Table> filtered = Filter(f, where);
  ASSERT_TRUE(filtered.ok());
  Result<Table> reference =
      HashAggregate(*filtered, {"d1", "d2", "d3"}, aggs, 1);
  ASSERT_TRUE(reference.ok());

  EXPECT_TRUE(BitIdentical(*masked, *reference));
  Result<Table> oracle = OracleAggregate(f, where, {"d1", "d2", "d3"}, aggs);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_TRUE(BitIdentical(*masked, *oracle));
}

TEST_F(PipelineSimd, PercentDivideMatchesScalarLoop) {
  Rng rng(31);
  Column num(DataType::kFloat64);
  Column den(DataType::kFloat64);
  for (size_t i = 0; i < 10000; ++i) {
    if (rng.Uniform(20) == 0) {
      num.AppendNull();
    } else {
      num.AppendFloat64(rng.NextDouble() * 50.0);
    }
    // Mix of NULL, zero and ordinary divisors: all three must agree.
    uint64_t kind = rng.Uniform(10);
    if (kind == 0) {
      den.AppendNull();
    } else if (kind == 1) {
      den.AppendFloat64(0.0);
    } else {
      den.AppendFloat64(rng.NextDouble() * 100.0 + 1.0);
    }
  }

  internal::SetSimdEnabledForTest(true);
  Result<Column> vec = PercentDivideColumns(num, den);
  ASSERT_TRUE(vec.ok());

  internal::SetSimdEnabledForTest(false);
  Result<Column> scalar = PercentDivideColumns(num, den);
  ASSERT_TRUE(scalar.ok());

  ASSERT_EQ(vec->size(), scalar->size());
  for (size_t i = 0; i < vec->size(); ++i) {
    Value a = vec->GetValue(i);
    Value b = scalar->GetValue(i);
    ASSERT_EQ(a.is_null(), b.is_null()) << "row " << i;
    if (!a.is_null()) {
      EXPECT_EQ(DoubleBits(a.AsDouble()), DoubleBits(b.AsDouble()))
          << "row " << i;
    }
  }
}

TEST_F(PipelineSimd, EndToEndQueriesMatchWithSimdDisabled) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(3000, 37)).ok());
  internal::SetSimdEnabledForTest(false);
  ExpectFusedMatchesMaterialized(
      db, "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2", 4);
  ExpectFusedMatchesMaterialized(
      db, "SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", 4);
}

// --- Dispatch, trace and fallback -------------------------------------------

class PipelineDispatch : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable("f", IntFact(1200, 41)).ok());
  }
  PctDatabase db_;
};

TEST_F(PipelineDispatch, FusedTraceShowsPipelineNodesAndCandidates) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> r = db_.QueryPartial(
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(trace.query_class, "vertical-percentage");
  EXPECT_EQ(trace.strategy, "partial from fused scan");
  EXPECT_EQ(trace.strategy_source, "forced");
  // All four materialized candidates plus the partial path, exactly one
  // chosen — and the chosen one is the partial entry.
  ASSERT_EQ(trace.predicted_costs.size(), 5u);
  int chosen = 0;
  bool fused_chosen = false;
  for (const auto& c : trace.predicted_costs) {
    EXPECT_GT(c.cost, 0.0);
    if (c.chosen) {
      ++chosen;
      fused_chosen = c.name == "partial";
    }
  }
  EXPECT_EQ(chosen, 1);
  EXPECT_TRUE(fused_chosen);
  // The plan tree is the fused node chain, with operator stats attached.
  ASSERT_FALSE(trace.root().children.empty());
  bool saw_fused_node = false;
  for (const auto& child : trace.root().children) {
    if (child->detail.find("fused") != std::string::npos) saw_fused_node = true;
  }
  EXPECT_TRUE(saw_fused_node);
  EXPECT_GT(trace.ActualRowOps(), 0u);
  EXPECT_DOUBLE_EQ(trace.actual_group_rows,
                   static_cast<double>(r->num_rows()));
}

TEST_F(PipelineDispatch, ExplainAnalyzeRendersFusedTree) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  ASSERT_TRUE(
      db_.QueryPartial("SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", options)
          .ok());
  const std::string rendered = trace.Render();
  EXPECT_NE(rendered.find("partial from fused scan"), std::string::npos);
  EXPECT_NE(rendered.find("fused"), std::string::npos);
  // Per-node operator stats made it into the render.
  EXPECT_NE(rendered.find("rows_in="), std::string::npos);
  EXPECT_NE(rendered.find("partial="), std::string::npos);
}

TEST_F(PipelineDispatch, AdvisorPathListsFusedCandidateUnchosenOnSmallInput) {
  // 1200 rows is far below kFusedMinRows, so kAuto keeps the materialized
  // plan but the trace still prices the fused alternative.
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  ASSERT_TRUE(
      db_.Query("SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2",
                options)
          .ok());
  EXPECT_NE(trace.strategy, "partial from fused scan");
  ASSERT_EQ(trace.predicted_costs.size(), 5u);
  bool fused_listed = false;
  for (const auto& c : trace.predicted_costs) {
    if (c.name == "partial") {
      fused_listed = true;
      EXPECT_FALSE(c.chosen);
    }
  }
  EXPECT_TRUE(fused_listed);
}

TEST_F(PipelineDispatch, AutoPicksFusedAboveRowThreshold) {
  PctDatabase big;
  ASSERT_TRUE(big.CreateTable("f", IntFact(70000, 43)).ok());
  obs::QueryTrace trace;
  QueryOptions options;
  options.trace = &trace;
  Result<Table> r = big.Query(
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(trace.strategy, "partial from fused scan");
  EXPECT_EQ(trace.strategy_source, "advisor");
}

TEST_F(PipelineDispatch, QueryPartialRefusesUnsupportedShapes) {
  // avg as the BY term has no distributive combine step over FVh partials:
  // QueryPartial returns the support gate's error, and Query still answers
  // on a materialized plan.
  for (const char* sql : {"SELECT d1, avg(a BY d2) FROM f GROUP BY d1"}) {
    SCOPED_TRACE(sql);
    Result<Table> r = db_.QueryPartial(sql, QueryOptions());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("avg(... BY ...) is not distributive"),
              std::string::npos)
        << r.status().ToString();
    obs::QueryTrace trace;
    QueryOptions options;
    options.trace = &trace;
    ASSERT_TRUE(db_.Query(sql, options).ok());
    EXPECT_NE(trace.strategy, "partial from fused scan");
  }
}

TEST_F(PipelineDispatch, ForcedMaterializedStrategyIsNeverFused) {
  obs::QueryTrace trace;
  QueryOptions options;
  options.vpct_strategy = VpctStrategy{};
  options.trace = &trace;
  ASSERT_TRUE(
      db_.Query("SELECT d1, Vpct(a BY d1) AS pct FROM f GROUP BY d1", options)
          .ok());
  EXPECT_NE(trace.strategy, "partial from fused scan");
  EXPECT_EQ(trace.strategy_source, "forced");
  // Forced-strategy traces keep exactly the four materialized candidates.
  EXPECT_EQ(trace.predicted_costs.size(), 4u);
}

TEST_F(PipelineDispatch, FusedSharesSummaryCacheWithMaterialized) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", IntFact(2000, 47)).ok());
  db.EnableSummaryCache(true);
  const std::string sql =
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2";

  // Materialized run populates the Fk-level summary; the fused run keys the
  // identical (table, group-by, rendered-aggs) entry and must hit it.
  Result<Table> rm = db.Query(sql, Materialized(db, sql, 1));
  ASSERT_TRUE(rm.ok()) << rm.status().ToString();
  size_t hits_before = db.summaries().hits();

  Result<Table> rf = db.QueryPartial(sql, QueryOptions());
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  EXPECT_GT(db.summaries().hits(), hits_before);
  EXPECT_TRUE(BitIdentical(*rf, *rm));

  // And a repeated fused run hits the entry it (or the first run) cached.
  size_t hits_mid = db.summaries().hits();
  ASSERT_TRUE(db.QueryPartial(sql, QueryOptions()).ok());
  EXPECT_GT(db.summaries().hits(), hits_mid);
}

}  // namespace
}  // namespace pctagg
