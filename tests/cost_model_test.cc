// Tests for the analytic cost model: its rankings must agree with the
// paper's qualitative findings (and with what this repo's benchmarks
// measure), even though its outputs are abstract row-operation counts.

#include "core/cost_model.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pctagg {
namespace {

// Paper-sales-like stats: n=10M, dept x store x dweek x monthNo groups,
// dweek x monthNo result columns.
FactStats BigSalesStats() {
  FactStats s;
  s.rows = 10e6;
  s.group_cardinality = 840000;  // dept(100) x store(100) x dweek(7) x mo(12)
  s.totals_cardinality = 10000;  // dept x store
  s.by_cardinality = 84;         // dweek x monthNo
  return s;
}

// Low-selectivity shape: n=1M, gender x marstatus.
FactStats SmallEmployeeStats() {
  FactStats s;
  s.rows = 1e6;
  s.group_cardinality = 8;   // gender(2) x marstatus(4)
  s.totals_cardinality = 2;  // gender
  s.by_cardinality = 4;      // marstatus
  return s;
}

TEST(CostModelTest, VpctBestStrategyIsThePapersRecommendation) {
  CostModel model;
  for (const FactStats& stats : {BigSalesStats(), SmallEmployeeStats()}) {
    VpctStrategy best = model.PickVpct(stats);
    EXPECT_TRUE(best.fj_from_fk);
    EXPECT_TRUE(best.insert_result);
    EXPECT_TRUE(best.matching_indexes);
  }
}

TEST(CostModelTest, FjFromFkSavingsGrowWithCompression) {
  CostModel model;
  FactStats stats = BigSalesStats();
  VpctStrategy from_fk;
  VpctStrategy from_f;
  from_f.fj_from_fk = false;
  double saving_big =
      model.VpctCost(stats, from_f) - model.VpctCost(stats, from_fk);
  stats.group_cardinality = stats.rows;  // |Fk| == n: no compression
  double saving_none =
      model.VpctCost(stats, from_f) - model.VpctCost(stats, from_fk);
  EXPECT_GT(saving_big, 0);
  EXPECT_GT(saving_big, saving_none);
}

TEST(CostModelTest, UpdatePenaltyScalesWithFv) {
  CostModel model;
  VpctStrategy insert;
  VpctStrategy update;
  update.insert_result = false;
  FactStats big = BigSalesStats();
  FactStats small = SmallEmployeeStats();
  double penalty_big =
      model.VpctCost(big, update) - model.VpctCost(big, insert);
  double penalty_small =
      model.VpctCost(small, update) - model.VpctCost(small, insert);
  EXPECT_GT(penalty_big, penalty_small);
  EXPECT_GE(penalty_small, 0);
}

TEST(CostModelTest, SpjAlwaysLosesToCase) {
  CostModel model;
  for (const FactStats& stats : {BigSalesStats(), SmallEmployeeStats()}) {
    HorizontalStrategy case_direct;
    case_direct.hash_dispatch = false;
    HorizontalStrategy spj;
    spj.method = HorizontalMethod::kSpjDirect;
    EXPECT_GT(model.HorizontalCost(stats, spj),
              model.HorizontalCost(stats, case_direct));
  }
}

TEST(CostModelTest, SpjGapGrowsWithN) {
  CostModel model;
  FactStats stats = BigSalesStats();
  HorizontalStrategy case_direct;
  HorizontalStrategy spj;
  spj.method = HorizontalMethod::kSpjDirect;
  stats.by_cardinality = 4;
  double gap_small = model.HorizontalCost(stats, spj) /
                     model.HorizontalCost(stats, case_direct);
  stats.by_cardinality = 100;
  double gap_large = model.HorizontalCost(stats, spj) /
                     model.HorizontalCost(stats, case_direct);
  EXPECT_GT(gap_large, gap_small);
  EXPECT_GT(gap_large, 10.0);  // the paper's order(s) of magnitude
}

TEST(CostModelTest, FromFvWinsWhenFvIsSmallAndNCellsLarge) {
  CostModel model;
  // Naive CASE evaluation (the DBMS behaviour Table 5 measures).
  HorizontalStrategy direct;
  direct.hash_dispatch = false;
  HorizontalStrategy via_fv;
  via_fv.method = HorizontalMethod::kCaseFromFV;
  via_fv.hash_dispatch = false;
  // employee gender,educat BY age x marstatus: N=400, |FV| tiny.
  FactStats wide;
  wide.rows = 1e6;
  wide.group_cardinality = 4000;
  wide.totals_cardinality = 10;
  wide.by_cardinality = 400;
  EXPECT_LT(model.HorizontalCost(wide, via_fv),
            model.HorizontalCost(wide, direct));
  // dweek only (N=7, FV barely smaller than relevant work): direct must not
  // lose big — the model should keep them within a small factor.
  FactStats narrow;
  narrow.rows = 1e6;
  narrow.group_cardinality = 7;  // |FV| at dweek level
  narrow.totals_cardinality = 1;
  narrow.by_cardinality = 7;
  double ratio = model.HorizontalCost(narrow, direct) /
                 model.HorizontalCost(narrow, via_fv);
  EXPECT_LT(ratio, 3.0);
}

TEST(CostModelTest, OlapAlwaysLosesToVpctBest) {
  CostModel model;
  for (const FactStats& stats : {BigSalesStats(), SmallEmployeeStats()}) {
    EXPECT_GT(model.OlapCost(stats), model.VpctCost(stats, VpctStrategy{}));
  }
}

TEST(CostModelTest, EstimateStatsFromData) {
  Rng rng(17);
  Table t(Schema({{"g", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"hi", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  for (int i = 0; i < 5000; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(4))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(7))),
                 Value::Int64(static_cast<int64_t>(i)),  // key-like
                 Value::Float64(1.0)});
  }
  CostModel model;
  const PlannerStats table = PlannerStats::Sample(t);
  FactStats stats =
      model.EstimateStats(table, {"g", "b"}, {"g"}, {"b"}).value();
  EXPECT_DOUBLE_EQ(stats.rows, 5000);
  EXPECT_NEAR(stats.group_cardinality, 28, 4);  // 4 x 7
  EXPECT_NEAR(stats.totals_cardinality, 4, 0.5);
  EXPECT_NEAR(stats.by_cardinality, 7, 0.5);
  // Key-like columns extrapolate to ~n and the product caps at n.
  FactStats keyed = model.EstimateStats(table, {"hi", "b"}, {}, {}).value();
  EXPECT_DOUBLE_EQ(keyed.group_cardinality, 5000);
  EXPECT_FALSE(model.EstimateStats(table, {"nope"}, {}, {}).ok());
}

// Distributed fan-out economics: on a scan-bound fact the 4-shard plan
// beats the single-node scan, more shards keep helping while scans dominate,
// and when the partial table is nearly as large as the fact (high group
// cardinality) the network/merge terms make fan-out a loss. This crossover
// is what EXPLAIN ANALYZE's "predicted costs" line shows on sharded tables.
TEST(CostModelTest, DistributedCostCrossover) {
  CostModel model;
  FactStats scan_bound = BigSalesStats();
  scan_bound.group_cardinality = 70;  // dweek x stateId: tiny partials
  scan_bound.dop = 1;
  const double single = model.FusedVpctCost(scan_bound);
  const double four = model.DistributedCost(scan_bound, 4, 1, 3);
  EXPECT_LT(four, single);
  EXPECT_GT(single / four, 2.0);  // the bench_shard acceptance floor
  // More shards shrink the scan term further (merge stays negligible here).
  EXPECT_LT(model.DistributedCost(scan_bound, 8, 1, 3), four);
  // Worker-side dop multiplies into the scan term too.
  EXPECT_LT(model.DistributedCost(scan_bound, 4, 4, 3), four);

  // Merge-bound shape: every row its own group, so each shard ships a
  // partial as big as its slice and the coordinator re-aggregates all of
  // it serially — fan-out must lose to the local scan.
  FactStats merge_bound = scan_bound;
  merge_bound.group_cardinality = merge_bound.rows;
  EXPECT_GT(model.DistributedCost(merge_bound, 4, 1, 3),
            model.FusedVpctCost(merge_bound));
}

TEST(CostModelTest, PickHorizontalNeverPicksSpj) {
  CostModel model;
  for (const FactStats& stats : {BigSalesStats(), SmallEmployeeStats()}) {
    HorizontalStrategy best = model.PickHorizontal(stats);
    EXPECT_TRUE(best.method == HorizontalMethod::kCaseDirect ||
                best.method == HorizontalMethod::kCaseFromFV);
  }
}

}  // namespace
}  // namespace pctagg
