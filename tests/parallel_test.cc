// Tests for the morsel-driven parallel operator kernels: the dispatcher and
// WaitGroup primitives, the packed key encoding, and — most importantly —
// determinism: parallel aggregate/pivot/join/window output must be
// row-for-row identical to the DOP=1 run across DOP ∈ {2,4,8} and seeds,
// including all-NULL groups and the missing-rows/division-by-zero NULL
// semantics. Everything here runs under the ParallelOps* suites so the
// parallel_ops_tsan ctest target can pin them by name.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/database.h"
#include "engine/aggregate.h"
#include "engine/join.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "engine/pivot.h"
#include "engine/table_ops.h"
#include "engine/window.h"
#include "workload/generators.h"

namespace pctagg {
namespace {

constexpr size_t kDops[] = {2, 4, 8};

// A randomized fact table big enough to split into several morsels:
// d1(5) x d2(7), int measure m (NULL ~10%, and ALWAYS NULL when d1 == 3 so
// one whole group aggregates to NULL), float measure f.
Table RandomFact(uint64_t seed, size_t n) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"m", DataType::kInt64},
                  {"f", DataType::kFloat64}}));
  for (size_t i = 0; i < n; ++i) {
    int64_t d1 = static_cast<int64_t>(rng.Uniform(5));
    Value m = (d1 == 3 || rng.Uniform(10) == 0)
                  ? Value::Null()
                  : Value::Int64(static_cast<int64_t>(rng.Uniform(1000)));
    t.AppendRow({Value::Int64(d1),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(7))), m,
                 Value::Float64(rng.NextDouble() * 100.0)});
  }
  return t;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.column(c).GetValue(r), b.column(c).GetValue(r))
          << "col " << a.schema().column(c).name << " row " << r;
    }
  }
}

// Same, but numeric cells compare with a relative tolerance — for float
// measures whose parallel sums may reassociate.
void ExpectTablesClose(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      Value va = a.column(c).GetValue(r);
      Value vb = b.column(c).GetValue(r);
      ASSERT_EQ(va.is_null(), vb.is_null()) << "row " << r;
      if (va.is_null()) continue;
      if (va.is_float64() || vb.is_float64()) {
        EXPECT_NEAR(va.AsDouble(), vb.AsDouble(),
                    1e-9 * (1.0 + std::fabs(va.AsDouble())))
            << "col " << c << " row " << r;
      } else {
        EXPECT_EQ(va, vb) << "col " << c << " row " << r;
      }
    }
  }
}

TEST(ParallelOpsWaitGroup, AddDoneWaitAndReuse) {
  WaitGroup wg;
  wg.Wait();  // zero count: returns immediately
  wg.Add(2);
  EXPECT_EQ(wg.count(), 2);
  ThreadPool pool(2);
  pool.Submit([&] { wg.Done(); });
  pool.Submit([&] { wg.Done(); });
  wg.Wait();
  EXPECT_EQ(wg.count(), 0);
  // Reusable after draining.
  wg.Add();
  EXPECT_FALSE(wg.WaitFor(std::chrono::milliseconds(10)));
  wg.Done();
  EXPECT_TRUE(wg.WaitFor(std::chrono::milliseconds(1000)));
}

TEST(ParallelOpsKeys, PackedEncodingIsPrefixFreeAndTyped) {
  Table t(Schema({{"i", DataType::kInt64},
                  {"f", DataType::kFloat64},
                  {"s", DataType::kString}}));
  t.AppendRow({Value::Int64(5), Value::Float64(5.0), Value::String("ab")});
  t.AppendRow({Value::Null(), Value::Null(), Value::String("")});
  t.AppendRow({Value::Int64(0), Value::Float64(0.0), Value::Null()});

  auto key_of = [&](const std::vector<size_t>& cols, size_t row) {
    std::string k;
    KeyEncoder(t, cols).AppendKey(row, &k);
    return k;
  };
  // int64 5 and float64 5.0 stay distinct (type tags).
  EXPECT_NE(key_of({0}, 0), key_of({1}, 0));
  // NULL differs from 0 and from the empty string.
  EXPECT_NE(key_of({0}, 1), key_of({0}, 2));
  EXPECT_NE(key_of({2}, 1), key_of({2}, 2));
  // ("ab","") vs ("a","b"): length prefixes keep concatenations apart.
  Table u(Schema({{"x", DataType::kString}, {"y", DataType::kString}}));
  u.AppendRow({Value::String("ab"), Value::String("")});
  u.AppendRow({Value::String("a"), Value::String("b")});
  std::string k0, k1;
  KeyEncoder enc(u, {0, 1});
  enc.AppendKey(0, &k0);
  enc.AppendKey(1, &k1);
  EXPECT_NE(k0, k1);
  // Identical values encode identically across tables of the same type.
  Table v(Schema({{"z", DataType::kInt64}}));
  v.AppendRow({Value::Int64(5)});
  std::string kv;
  KeyEncoder(v, {0}).AppendKey(0, &kv);
  EXPECT_EQ(key_of({0}, 0), kv);
}

TEST(ParallelOpsKeys, KeyMapAssignsDenseFirstSeenIds) {
  KeyMap m;
  EXPECT_EQ(m.GetOrAdd("a"), (std::pair<size_t, bool>{0, true}));
  EXPECT_EQ(m.GetOrAdd("b"), (std::pair<size_t, bool>{1, true}));
  EXPECT_EQ(m.GetOrAdd("a"), (std::pair<size_t, bool>{0, false}));
  EXPECT_EQ(m.Find("b"), 1u);
  EXPECT_EQ(m.Find("zzz"), SIZE_MAX);
  EXPECT_EQ(m.size(), 2u);
}

TEST(ParallelOpsDispatch, MorselPlanShapes) {
  MorselPlan p = MorselPlan::For(10, 4, 3);
  EXPECT_EQ(p.num_morsels, 4u);  // 3+3+3+1
  EXPECT_EQ(p.num_workers, 4u);
  EXPECT_EQ(p.Begin(3), 9u);
  EXPECT_EQ(p.End(3), 10u);
  // Fewer morsels than dop: workers capped.
  EXPECT_EQ(MorselPlan::For(10, 8, 6).num_workers, 2u);
  // Empty input.
  EXPECT_EQ(MorselPlan::For(0, 8).num_morsels, 0u);
  // Serial.
  EXPECT_EQ(MorselPlan::For(1000, 1).num_workers, 1u);
}

TEST(ParallelOpsDispatch, MorselPlanAutoAdaptiveShapes) {
  // Serial keeps the fixed default granularity.
  MorselPlan serial = MorselPlan::Auto(1 << 20, 1);
  EXPECT_EQ(serial.num_workers, 1u);
  EXPECT_EQ(serial.morsel_rows, kDefaultMorselRows);

  // Workers never exceed what the host can actually run in parallel.
  size_t cpus = AvailableParallelism();
  EXPECT_GE(cpus, 1u);
  EXPECT_LE(MorselPlan::Auto(1 << 22, 64).num_workers, cpus);

  // Adaptive sizing stays inside its bounds and covers every row, across a
  // spread of input sizes and dops.
  for (size_t n : {size_t{0}, size_t{100}, size_t{50000}, size_t{1} << 21}) {
    for (size_t dop : {size_t{2}, size_t{4}, size_t{8}}) {
      MorselPlan p = MorselPlan::Auto(n, dop);
      SCOPED_TRACE("n=" + std::to_string(n) + " dop=" + std::to_string(dop));
      if (p.num_workers > 1) {
        EXPECT_GE(p.morsel_rows, kMinAdaptiveMorselRows);
        EXPECT_LE(p.morsel_rows, kMaxAdaptiveMorselRows);
      }
      EXPECT_EQ(p.num_morsels,
                n == 0 ? 0u : (n + p.morsel_rows - 1) / p.morsel_rows);
      if (p.num_morsels > 0) {
        EXPECT_EQ(p.End(p.num_morsels - 1), n);
      }
      EXPECT_LE(p.num_workers, std::max<size_t>(p.num_morsels, 1));
    }
  }

  // Small inputs collapse to one morsel (the lower bound dominates), so a
  // parallel request degenerates to serial work instead of thread churn.
  EXPECT_EQ(MorselPlan::Auto(10000, 8).num_morsels, 1u);
}

TEST(ParallelOpsDispatch, EveryRowRunsExactlyOnce) {
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  MorselPlan plan = MorselPlan::For(n, 4, 128);
  RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    ASSERT_LT(worker, plan.num_workers);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "row " << i;
  }
}

// RunMorsels reports the workers that ran at least one morsel (a trace's
// workers=), not the ones it planned: a helper the pool never started
// before the morsels ran out is not counted.
TEST(ParallelOpsDispatch, ReportsTheWorkersThatRan) {
  EXPECT_EQ(RunMorsels(MorselPlan::For(0, 4), [](size_t, size_t, size_t) {}),
            0u);
  EXPECT_EQ(RunMorsels(MorselPlan::For(1000, 1, 10),
                       [](size_t, size_t, size_t) {}),
            1u);
  for (size_t dop : {2, 4, 8}) {
    MorselPlan plan = MorselPlan::For(20000, dop, 100);
    std::vector<std::atomic<int>> ran(plan.num_workers);
    const size_t reported =
        RunMorsels(plan, [&](size_t worker, size_t, size_t) {
          ran[worker].store(1);
        });
    size_t distinct = 0;
    for (const std::atomic<int>& r : ran) distinct += r.load();
    EXPECT_EQ(reported, distinct) << "dop " << dop;
    EXPECT_GE(reported, 1u);
    EXPECT_LE(reported, plan.num_workers);
  }
}

// A dispatch from inside a pool task must not deadlock even when every pool
// worker is itself dispatching (the caller self-drains its morsels).
TEST(ParallelOpsDispatch, NestedDispatchFromPoolTasksDoesNotDeadlock) {
  const size_t kTasks = SharedThreadPool().num_threads() * 4;
  WaitGroup wg;
  std::atomic<size_t> total{0};
  for (size_t t = 0; t < kTasks; ++t) {
    wg.Add();
    SharedThreadPool().Submit([&] {
      MorselPlan plan = MorselPlan::For(5000, 4, 64);
      std::atomic<size_t> local{0};
      RunMorsels(plan, [&](size_t, size_t begin, size_t end) {
        local.fetch_add(end - begin);
      });
      total.fetch_add(local.load());
      wg.Done();
    });
  }
  ASSERT_TRUE(wg.WaitFor(std::chrono::milliseconds(60000)));
  EXPECT_EQ(total.load(), kTasks * 5000);
}

TEST(ParallelOpsAggregate, IdenticalToSerialAcrossDopAndSeeds) {
  for (uint64_t seed : {7u, 81u, 2026u}) {
    Table t = RandomFact(seed, 30000);
    auto aggs = [] {
      return std::vector<AggSpec>{{AggFunc::kSum, Col("m"), "s"},
                                  {AggFunc::kCount, Col("m"), "c"},
                                  {AggFunc::kCountStar, nullptr, "n"},
                                  {AggFunc::kAvg, Col("m"), "avg"},
                                  {AggFunc::kMin, Col("m"), "lo"},
                                  {AggFunc::kMax, Col("m"), "hi"}};
    };
    Table serial = HashAggregate(t, {"d1", "d2"}, aggs(), 1).value();
    for (size_t dop : kDops) {
      Table parallel = HashAggregate(t, {"d1", "d2"}, aggs(), dop).value();
      // Integer measures: bit-identical, including group order (first-seen)
      // and the all-NULL d1=3 groups (sum NULL, count 0).
      ExpectTablesIdentical(serial, parallel);
    }
  }
}

TEST(ParallelOpsAggregate, AllNullGroupStaysNull) {
  Table t = RandomFact(11, 20000);
  Table out = HashAggregate(t, {"d1"},
                            {{AggFunc::kSum, Col("m"), "s"},
                             {AggFunc::kCount, Col("m"), "c"}},
                            4)
                  .value();
  bool saw_null_group = false;
  for (size_t r = 0; r < out.num_rows(); ++r) {
    if (!out.column(0).IsNull(r) && out.column(0).Int64At(r) == 3) {
      saw_null_group = true;
      EXPECT_TRUE(out.column(1).IsNull(r));      // sum over all-NULL -> NULL
      EXPECT_EQ(out.column(2).Int64At(r), 0);    // count -> 0
    }
  }
  EXPECT_TRUE(saw_null_group);
}

TEST(ParallelOpsAggregate, FloatSumsCloseToSerial) {
  Table t = RandomFact(29, 30000);
  std::vector<AggSpec> aggs{{AggFunc::kSum, Col("f"), "s"},
                            {AggFunc::kAvg, Col("f"), "avg"},
                            {AggFunc::kMin, Col("f"), "lo"},
                            {AggFunc::kMax, Col("f"), "hi"}};
  Table serial = HashAggregate(t, {"d1", "d2"}, aggs, 1).value();
  for (size_t dop : kDops) {
    Table parallel = HashAggregate(t, {"d1", "d2"}, aggs, dop).value();
    ExpectTablesClose(serial, parallel);
  }
}

TEST(ParallelOpsAggregate, GlobalGroupAndEmptyInput) {
  Table t = RandomFact(3, 5000);
  Table serial =
      HashAggregate(t, {}, {{AggFunc::kSum, Col("m"), "s"}}, 1).value();
  Table parallel =
      HashAggregate(t, {}, {{AggFunc::kSum, Col("m"), "s"}}, 8).value();
  ExpectTablesIdentical(serial, parallel);

  Table empty(Schema({{"d", DataType::kInt64}, {"m", DataType::kInt64}}));
  Table out =
      HashAggregate(empty, {}, {{AggFunc::kSum, Col("m"), "s"}}, 8).value();
  ASSERT_EQ(out.num_rows(), 1u);  // SQL: global group over zero rows
  EXPECT_TRUE(out.column(0).IsNull(0));
}

TEST(ParallelOpsPivot, IdenticalToSerialAcrossDopAndSeeds) {
  for (uint64_t seed : {5u, 97u}) {
    Table t = RandomFact(seed, 30000);
    PivotOptions options;
    options.func = AggFunc::kSum;
    Table serial =
        HashDispatchPivot(t, {"d1"}, {"d2"}, Col("m"), options, 1).value();
    for (size_t dop : kDops) {
      Table parallel =
          HashDispatchPivot(t, {"d1"}, {"d2"}, Col("m"), options, dop).value();
      ExpectTablesIdentical(serial, parallel);
    }
  }
}

TEST(ParallelOpsPivot, PercentModeDivisionByZeroStaysNull) {
  // Group 0 has only zero/NULL measures -> group total 0 -> every percent
  // cell in that group must be NULL, at every dop.
  Table t(Schema({{"g", DataType::kInt64},
                  {"p", DataType::kInt64},
                  {"m", DataType::kInt64}}));
  Rng rng(13);
  for (size_t i = 0; i < 20000; ++i) {
    int64_t g = static_cast<int64_t>(rng.Uniform(4));
    Value m = g == 0 ? (rng.Uniform(2) == 0 ? Value::Null() : Value::Int64(0))
                     : Value::Int64(1 + static_cast<int64_t>(rng.Uniform(50)));
    t.AppendRow(
        {Value::Int64(g), Value::Int64(static_cast<int64_t>(rng.Uniform(3))),
         m});
  }
  PivotOptions options;
  options.percent_of_group_total = true;
  Table serial = HashDispatchPivot(t, {"g"}, {"p"}, Col("m"), options, 1).value();
  for (size_t dop : kDops) {
    Table parallel =
        HashDispatchPivot(t, {"g"}, {"p"}, Col("m"), options, dop).value();
    ExpectTablesIdentical(serial, parallel);
  }
  for (size_t r = 0; r < serial.num_rows(); ++r) {
    if (serial.column(0).Int64At(r) == 0) {
      for (size_t c = 1; c < serial.num_columns(); ++c) {
        EXPECT_TRUE(serial.column(c).IsNull(r));
      }
    }
  }
}

TEST(ParallelOpsPivot, MissingCellSemanticsAcrossDop) {
  // d2 value 6 never occurs with d1=0 -> that cell is NULL (or 0 with
  // default_zero) and must stay so in parallel runs.
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"m", DataType::kInt64}}));
  Rng rng(17);
  for (size_t i = 0; i < 20000; ++i) {
    int64_t d1 = static_cast<int64_t>(rng.Uniform(3));
    int64_t d2 = static_cast<int64_t>(rng.Uniform(6));
    if (d1 == 0 && d2 == 5) d2 = 4;  // carve the hole
    t.AppendRow({Value::Int64(d1), Value::Int64(d2),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(100)))});
  }
  for (bool default_zero : {false, true}) {
    PivotOptions options;
    options.default_zero = default_zero;
    Table serial =
        HashDispatchPivot(t, {"d1"}, {"d2"}, Col("m"), options, 1).value();
    for (size_t dop : kDops) {
      Table parallel =
          HashDispatchPivot(t, {"d1"}, {"d2"}, Col("m"), options, dop).value();
      ExpectTablesIdentical(serial, parallel);
    }
  }
}

TEST(ParallelOpsJoin, ProbeIdenticalToSerialWithAndWithoutIndex) {
  Table left = RandomFact(23, 25000);
  // Right side: one row per (d1, d2), minus the d1=0 groups so left-outer
  // probes actually produce unmatched rows (NULL right-side outputs).
  Table right =
      Filter(HashAggregate(left, {"d1", "d2"},
                           {{AggFunc::kSum, Col("m"), "tot"}}, 1)
                 .value(),
             Ne(Col("d1"), Lit(Value::Int64(0))))
          .value();
  std::vector<JoinOutput> outputs = {
      {JoinOutput::Side::kLeft, "d1", ""},
      {JoinOutput::Side::kLeft, "m", ""},
      {JoinOutput::Side::kRight, "tot", "tot"}};
  HashIndex index = HashIndex::Build(right, {"d1", "d2"}).value();
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter}) {
    ScopedParallelism serial_scope(1);
    Table serial = HashJoin(left, right, {"d1", "d2"}, {"d1", "d2"}, kind,
                            outputs, nullptr, false)
                       .value();
    for (size_t dop : kDops) {
      ScopedParallelism scope(dop);
      Table parallel = HashJoin(left, right, {"d1", "d2"}, {"d1", "d2"}, kind,
                                outputs, nullptr, false)
                           .value();
      ExpectTablesIdentical(serial, parallel);
      Table indexed = HashJoin(left, right, {"d1", "d2"}, {"d1", "d2"}, kind,
                               outputs, &index, false)
                          .value();
      ExpectTablesIdentical(serial, indexed);
    }
  }
}

TEST(ParallelOpsJoin, LookupColumnIdenticalToSerial) {
  Table left = RandomFact(31, 25000);
  Table right = HashAggregate(left, {"d1"},
                              {{AggFunc::kSum, Col("m"), "tot"}}, 1)
                    .value();
  Column serial = [&] {
    ScopedParallelism scope(1);
    return LookupColumn(left, right, {"d1"}, {"d1"}, "tot", nullptr).value();
  }();
  for (size_t dop : kDops) {
    ScopedParallelism scope(dop);
    Column parallel =
        LookupColumn(left, right, {"d1"}, {"d1"}, "tot", nullptr).value();
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t r = 0; r < serial.size(); ++r) {
      EXPECT_EQ(serial.GetValue(r), parallel.GetValue(r)) << "row " << r;
    }
  }
}

TEST(ParallelOpsWindow, PartitionAggregateIdenticalToSerial) {
  Table t = RandomFact(41, 30000);
  Column serial = [&] {
    ScopedParallelism scope(1);
    return WindowAggregate(t, {"d1", "d2"}, AggFunc::kSum, Col("m")).value();
  }();
  for (size_t dop : kDops) {
    ScopedParallelism scope(dop);
    Column parallel =
        WindowAggregate(t, {"d1", "d2"}, AggFunc::kSum, Col("m")).value();
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t r = 0; r < serial.size(); ++r) {
      EXPECT_EQ(serial.GetValue(r), parallel.GetValue(r)) << "row " << r;
    }
  }
}

// End-to-end: the same Vpct / Hpct / OLAP queries through PctDatabase at
// DOP 1 vs parallel settings, exercising the full planner path including
// missing-rows handling and the percentage division.
TEST(ParallelOpsEndToEnd, QueriesMatchSerialAcrossDop) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("sales", GenerateSales(40000)).ok());
  const char* queries[] = {
      "SELECT monthNo, dweek, Vpct(salesAmt BY dweek) AS pct FROM sales "
      "GROUP BY monthNo, dweek ORDER BY monthNo, dweek",
      "SELECT dweek, Hpct(salesAmt BY monthNo) FROM sales GROUP BY dweek "
      "ORDER BY dweek",
  };
  for (const char* sql : queries) {
    QueryOptions serial_options;
    serial_options.degree_of_parallelism = 1;
    Result<Table> serial = db.Query(sql, serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (size_t dop : kDops) {
      QueryOptions options;
      options.degree_of_parallelism = dop;
      Result<Table> parallel = db.Query(sql, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      // salesAmt is a float measure: sums may reassociate.
      ExpectTablesClose(serial.value(), parallel.value());
    }
  }
  // The OLAP window baseline takes its own plan shape.
  QueryOptions olap1;
  olap1.olap_baseline = true;
  olap1.degree_of_parallelism = 1;
  const char* olap_sql =
      "SELECT dweek, Vpct(salesAmt) AS pct FROM sales GROUP BY dweek "
      "ORDER BY dweek";
  Result<Table> serial = db.Query(olap_sql, olap1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  QueryOptions olap4 = olap1;
  olap4.degree_of_parallelism = 4;
  Result<Table> parallel = db.Query(olap_sql, olap4);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectTablesClose(serial.value(), parallel.value());
}

// dop=0 resolves to the shared pool's size ("auto").
TEST(ParallelOpsEndToEnd, AutoDopResolvesToPoolSize) {
  {
    ScopedParallelism scope(0);
    EXPECT_EQ(CurrentDop(), SharedThreadPool().num_threads());
  }
  EXPECT_EQ(CurrentDop(), 1u);
}

}  // namespace
}  // namespace pctagg
