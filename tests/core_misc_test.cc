// Tests for the remaining core pieces: vertical partitioning (max-column
// limit), the StrategyAdvisor recommendations, missing-row helpers, and the
// Plan container itself.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/advisor.h"
#include "core/database.h"
#include "core/missing_rows.h"
#include "core/partition.h"
#include "core/plan.h"
#include "sql/parser.h"

namespace pctagg {
namespace {

Table WideTable(size_t cells) {
  Schema schema;
  schema.AddColumn({"k", DataType::kInt64});
  for (size_t i = 0; i < cells; ++i) {
    schema.AddColumn({"c" + std::to_string(i), DataType::kFloat64});
  }
  Table t(schema);
  for (int64_t row = 0; row < 3; ++row) {
    std::vector<Value> values;
    values.push_back(Value::Int64(row));
    for (size_t i = 0; i < cells; ++i) {
      values.push_back(Value::Float64(static_cast<double>(row * 100 + i)));
    }
    t.AppendRow(values);
  }
  return t;
}

TEST(PartitionTest, SplitsWideTables) {
  Table wide = WideTable(10);
  std::vector<Table> parts = VerticallyPartition(wide, {"k"}, 4).value();
  // 10 cells, 3 per partition (4 max - 1 key) -> 4 partitions.
  ASSERT_EQ(parts.size(), 4u);
  for (const Table& p : parts) {
    EXPECT_LE(p.num_columns(), 4u);
    EXPECT_TRUE(p.schema().HasColumn("k"));
    EXPECT_EQ(p.num_rows(), 3u);
  }
  // All cell columns present exactly once across partitions.
  size_t total_cells = 0;
  for (const Table& p : parts) total_cells += p.num_columns() - 1;
  EXPECT_EQ(total_cells, 10u);
  // Values survive the split.
  EXPECT_DOUBLE_EQ(
      parts[1].ColumnByName("c3").value()->Float64At(2), 203.0);
}

TEST(PartitionTest, NoSplitWhenNarrowEnough) {
  Table wide = WideTable(3);
  std::vector<Table> parts = VerticallyPartition(wide, {"k"}, 10).value();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].num_columns(), 4u);
}

TEST(PartitionTest, RejectsImpossibleLimit) {
  Table wide = WideTable(3);
  EXPECT_FALSE(VerticallyPartition(wide, {"k"}, 1).ok());
  EXPECT_FALSE(VerticallyPartition(wide, {"nope"}, 4).ok());
}

TEST(PartitionTest, KeyOnlyTableYieldsOnePartition) {
  Table t(Schema({{"k", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1)});
  std::vector<Table> parts = VerticallyPartition(t, {"k"}, 4).value();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].num_columns(), 1u);
}

TEST(AdvisorTest, EstimatesCardinality) {
  Rng rng(1);
  Table t(Schema({{"lo", DataType::kInt64}, {"hi", DataType::kInt64}}));
  for (int i = 0; i < 5000; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(7))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(500)))});
  }
  const PlannerStats stats = PlannerStats::Sample(t);
  EXPECT_EQ(stats.Cardinality("lo").value(), 7u);
  EXPECT_GT(stats.Cardinality("hi").value(), 100u);
  EXPECT_FALSE(stats.Cardinality("nope").ok());
}

TEST(AdvisorTest, RecommendsDirectForLowSelectivity) {
  Rng rng(2);
  Table t(Schema({{"g", DataType::kInt64},
                  {"lo", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  for (int i = 0; i < 2000; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(10))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(7))),
                 Value::Float64(1.0)});
  }
  SelectStatement stmt =
      ParseSelect("SELECT g, Hpct(a BY lo) FROM f GROUP BY g").value();
  AnalyzedQuery q = Analyze(stmt, t.schema()).value();
  StrategyAdvisor advisor;
  EXPECT_EQ(advisor.AdviseHorizontal(PlannerStats::Sample(t), q).method,
            HorizontalMethod::kCaseDirect);
}

TEST(AdvisorTest, RecommendsFromFvForHighSelectivityOrManyColumns) {
  Rng rng(3);
  Table t(Schema({{"g", DataType::kInt64},
                  {"hi", DataType::kInt64},
                  {"b1", DataType::kInt64},
                  {"b2", DataType::kInt64},
                  {"b3", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  for (int i = 0; i < 2000; ++i) {
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(10))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(400))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(2))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(2))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(2))),
                 Value::Float64(1.0)});
  }
  StrategyAdvisor advisor;
  const PlannerStats stats = PlannerStats::Sample(t);
  // High selectivity BY column -> from FV.
  SelectStatement s1 =
      ParseSelect("SELECT g, Hpct(a BY hi) FROM f GROUP BY g").value();
  EXPECT_EQ(
      advisor.AdviseHorizontal(stats, Analyze(s1, t.schema()).value()).method,
      HorizontalMethod::kCaseFromFV);
  // Three low-selectivity BY columns -> from FV ("three or more grouping
  // columns").
  SelectStatement s2 =
      ParseSelect("SELECT g, Hpct(a BY b1, b2, b3) FROM f GROUP BY g").value();
  EXPECT_EQ(
      advisor.AdviseHorizontal(stats, Analyze(s2, t.schema()).value()).method,
      HorizontalMethod::kCaseFromFV);
}

TEST(AdvisorTest, VpctAlwaysBestDefaults) {
  Table t(Schema({{"g", DataType::kInt64}, {"a", DataType::kFloat64}}));
  SelectStatement stmt =
      ParseSelect("SELECT g, Vpct(a) FROM f GROUP BY g").value();
  AnalyzedQuery q = Analyze(stmt, t.schema()).value();
  StrategyAdvisor advisor;
  VpctStrategy s = advisor.AdviseVpct(PlannerStats::Sample(t), q);
  EXPECT_TRUE(s.matching_indexes);
  EXPECT_TRUE(s.insert_result);
  EXPECT_TRUE(s.fj_from_fk);
}

TEST(MissingRowsTest, ExpandFactCoversAllPairs) {
  Table f(Schema({{"g", DataType::kInt64},
                  {"b", DataType::kInt64},
                  {"a", DataType::kFloat64},
                  {"other", DataType::kString}}));
  f.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(5),
               Value::String("x")});
  f.AppendRow({Value::Int64(2), Value::Int64(2), Value::Float64(7),
               Value::String("y")});
  Table out = ExpandFactWithMissingRows(f, {"g"}, {"b"}, {"a"}).value();
  // 2 groups x 2 combos = 4 rows total.
  ASSERT_EQ(out.num_rows(), 4u);
  // Synthetic rows carry zero measure and NULL elsewhere.
  bool found_synthetic = false;
  for (size_t i = 2; i < out.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(out.column(2).Float64At(i), 0.0);
    EXPECT_TRUE(out.column(3).IsNull(i));
    found_synthetic = true;
  }
  EXPECT_TRUE(found_synthetic);
}

TEST(MissingRowsTest, InsertResultRowsGrandTotal) {
  Table f(Schema({{"b", DataType::kInt64}, {"a", DataType::kFloat64}}));
  f.AppendRow({Value::Int64(1), Value::Float64(5)});
  f.AppendRow({Value::Int64(2), Value::Float64(5)});
  // Result missing b=2.
  Table result(Schema({{"b", DataType::kInt64}, {"pct", DataType::kFloat64}}));
  result.AppendRow({Value::Int64(1), Value::Float64(1.0)});
  ASSERT_TRUE(
      InsertMissingResultRows(f, {}, {"b"}, {"pct"}, &result).ok());
  ASSERT_EQ(result.num_rows(), 2u);
  EXPECT_EQ(result.column(0).Int64At(1), 2);
  EXPECT_DOUBLE_EQ(result.column(1).Float64At(1), 0.0);
}

TEST(PlanTest, StepsRunInOrderAndErrorsAnnotate) {
  Catalog catalog;
  Plan plan;
  std::vector<int>* order = new std::vector<int>();
  plan.AddStep("step one", [order](ExecContext*) -> Status {
    order->push_back(1);
    return Status::OK();
  });
  plan.AddStep("step two", [order](ExecContext*) -> Status {
    order->push_back(2);
    return Status::Internal("boom");
  });
  plan.AddStep("step three", [order](ExecContext*) -> Status {
    order->push_back(3);
    return Status::OK();
  });
  Status st = plan.Execute(&catalog);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("step two"), std::string::npos);
  EXPECT_EQ(*order, (std::vector<int>{1, 2}));  // step three never ran
  delete order;
}

TEST(PlanTest, ToSqlTerminatesStatements) {
  Plan plan;
  plan.AddStep("SELECT 1", [](ExecContext*) { return Status::OK(); });
  plan.AddStep("SELECT 2;", [](ExecContext*) { return Status::OK(); });
  EXPECT_EQ(plan.ToSql(), "SELECT 1;\nSELECT 2;\n");
}

TEST(PlanTest, CleanupIgnoresMissingTables) {
  Catalog catalog;
  Plan plan;
  plan.AddTempTable("never_created");
  plan.Cleanup(&catalog);  // must not crash
  SUCCEED();
}

TEST(PlanTest, TempNamesAreUnique) {
  EXPECT_NE(NewTempName("Fk"), NewTempName("Fk"));
}

}  // namespace
}  // namespace pctagg
