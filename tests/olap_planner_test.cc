// Tests for the ANSI OLAP window-function baseline planner and plain window
// queries.

#include "core/olap_planner.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "sql/parser.h"

namespace pctagg {
namespace {

Table RandomFact(uint64_t seed, size_t n = 250) {
  Rng rng(seed);
  Table t(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  for (size_t i = 0; i < n; ++i) {
    Value a = rng.Uniform(15) == 0
                  ? Value::Null()
                  : Value::Float64(1.0 + rng.NextDouble() * 9.0);
    t.AppendRow({Value::Int64(static_cast<int64_t>(rng.Uniform(4))),
                 Value::Int64(static_cast<int64_t>(rng.Uniform(5))), a});
  }
  return t;
}

TEST(OlapPlannerTest, MatchesVpctOnRandomData) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(31)).ok());
  std::string sql =
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2 "
      "ORDER BY d1, d2";
  Table direct = db.Query(sql).value();
  Table olap = db.QueryOlapBaseline(sql).value();
  ASSERT_EQ(direct.num_rows(), olap.num_rows());
  ASSERT_EQ(direct.num_columns(), olap.num_columns());
  for (size_t i = 0; i < direct.num_rows(); ++i) {
    for (size_t c = 0; c < direct.num_columns(); ++c) {
      Value a = direct.column(c).GetValue(i);
      Value b = olap.column(c).GetValue(i);
      ASSERT_EQ(a.is_null(), b.is_null()) << "row " << i << " col " << c;
      if (!a.is_null() && a.is_float64()) {
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(), 1e-9);
      }
    }
  }
}

TEST(OlapPlannerTest, MatchesVpctWithGrandTotal) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(37)).ok());
  std::string sql =
      "SELECT d1, Vpct(a) AS pct FROM f GROUP BY d1 ORDER BY d1";
  Table direct = db.Query(sql).value();
  Table olap = db.QueryOlapBaseline(sql).value();
  ASSERT_EQ(direct.num_rows(), olap.num_rows());
  for (size_t i = 0; i < direct.num_rows(); ++i) {
    EXPECT_NEAR(direct.ColumnByName("pct").value()->Float64At(i),
                olap.ColumnByName("pct").value()->Float64At(i), 1e-9);
  }
}

TEST(OlapPlannerTest, RejectsNonVpctQueries) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(2)).ok());
  Result<AnalyzedQuery> q =
      db.PrepareQuery("SELECT d1, sum(a) FROM f GROUP BY d1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_FALSE(PlanOlapPercentageQuery(*q).ok());
}

TEST(OlapPlannerTest, GeneratedSqlUsesWindows) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", RandomFact(2)).ok());
  SelectStatement stmt =
      ParseSelect("SELECT d1, d2, Vpct(a BY d2) FROM f GROUP BY d1, d2")
          .value();
  AnalyzedQuery q =
      Analyze(stmt, db.catalog().GetTable("f").value()->schema()).value();
  std::string sql = PlanOlapPercentageQuery(q).value().ToSql();
  EXPECT_NE(sql.find("OVER (PARTITION BY"), std::string::npos);
  EXPECT_NE(sql.find("SELECT DISTINCT"), std::string::npos);
}

TEST(WindowQueryTest, SumOverPartition) {
  PctDatabase db;
  Table f(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  f.AppendRow({Value::Int64(1), Value::Float64(1)});
  f.AppendRow({Value::Int64(1), Value::Float64(2)});
  f.AppendRow({Value::Int64(2), Value::Float64(5)});
  ASSERT_TRUE(db.CreateTable("f", std::move(f)).ok());
  Table t = db.Query("SELECT d, sum(a) OVER (PARTITION BY d) AS tot FROM f")
                .value();
  ASSERT_EQ(t.num_rows(), 3u);  // one output row per input row
  EXPECT_DOUBLE_EQ(t.ColumnByName("tot").value()->Float64At(0), 3.0);
  EXPECT_DOUBLE_EQ(t.ColumnByName("tot").value()->Float64At(2), 5.0);
}

TEST(WindowQueryTest, EmptyOverIsGrandTotal) {
  PctDatabase db;
  Table f(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  f.AppendRow({Value::Int64(1), Value::Float64(1)});
  f.AppendRow({Value::Int64(2), Value::Float64(2)});
  ASSERT_TRUE(db.CreateTable("f", std::move(f)).ok());
  Table t = db.Query("SELECT d, sum(a) OVER () AS tot FROM f").value();
  EXPECT_DOUBLE_EQ(t.ColumnByName("tot").value()->Float64At(0), 3.0);
  EXPECT_DOUBLE_EQ(t.ColumnByName("tot").value()->Float64At(1), 3.0);
}

TEST(WindowQueryTest, WhereAppliesBeforeWindow) {
  PctDatabase db;
  Table f(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  f.AppendRow({Value::Int64(1), Value::Float64(1)});
  f.AppendRow({Value::Int64(1), Value::Float64(100)});
  ASSERT_TRUE(db.CreateTable("f", std::move(f)).ok());
  Table t = db.Query("SELECT d, sum(a) OVER (PARTITION BY d) AS tot "
                     "FROM f WHERE a < 10")
                .value();
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.ColumnByName("tot").value()->Float64At(0), 1.0);
}

}  // namespace
}  // namespace pctagg
