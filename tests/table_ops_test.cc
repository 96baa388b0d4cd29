// Unit tests for Filter, Project, Distinct, Sort and InsertInto.

#include "engine/table_ops.h"

#include <gtest/gtest.h>

#include <limits>

namespace pctagg {
namespace {

Table TestTable() {
  Table t(Schema({{"d", DataType::kInt64}, {"a", DataType::kFloat64}}));
  t.AppendRow({Value::Int64(2), Value::Float64(1.0)});
  t.AppendRow({Value::Int64(1), Value::Float64(2.0)});
  t.AppendRow({Value::Int64(2), Value::Float64(3.0)});
  t.AppendRow({Value::Null(), Value::Float64(4.0)});
  return t;
}

TEST(FilterTest, KeepsTrueRowsOnly) {
  Table out = Filter(TestTable(), Eq(Col("d"), Lit(Value::Int64(2)))).value();
  EXPECT_EQ(out.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(0), 1.0);
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(1), 3.0);
}

TEST(FilterTest, UnknownPredicateDropsRow) {
  // d = 2 is UNKNOWN for the NULL row: it must not pass the filter.
  Table out = Filter(TestTable(), Eq(Col("d"), Lit(Value::Int64(2)))).value();
  for (size_t i = 0; i < out.num_rows(); ++i) {
    EXPECT_FALSE(out.column(0).IsNull(i));
  }
}

TEST(FilterTest, NonBooleanPredicateRejected) {
  Table t(Schema({{"s", DataType::kString}}));
  t.AppendRow({Value::String("x")});
  EXPECT_EQ(Filter(t, Col("s")).status().code(), StatusCode::kTypeMismatch);
}

TEST(ProjectTest, ComputesAndNames) {
  Table out = Project(TestTable(), {{Col("d"), "d"},
                                    {Mul(Col("a"), Lit(Value::Int64(2))), "a2"}})
                  .value();
  EXPECT_EQ(out.num_columns(), 2u);
  EXPECT_EQ(out.schema().column(1).name, "a2");
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(1), 4.0);
}

TEST(ProjectTest, BindingErrorSurfaces) {
  EXPECT_FALSE(Project(TestTable(), {{Col("zzz"), "x"}}).ok());
}

TEST(DistinctTest, FirstSeenOrder) {
  Table out = Distinct(TestTable(), {"d"}).value();
  ASSERT_EQ(out.num_rows(), 3u);  // 2, 1, NULL
  EXPECT_EQ(out.column(0).Int64At(0), 2);
  EXPECT_EQ(out.column(0).Int64At(1), 1);
  EXPECT_TRUE(out.column(0).IsNull(2));
}

TEST(DistinctTest, NullIsItsOwnValue) {
  Table t(Schema({{"d", DataType::kInt64}}));
  t.AppendRow({Value::Null()});
  t.AppendRow({Value::Null()});
  t.AppendRow({Value::Int64(0)});
  Table out = Distinct(t, {"d"}).value();
  EXPECT_EQ(out.num_rows(), 2u);  // NULL and 0 are distinct
}

TEST(DistinctTest, MultiColumn) {
  Table t(Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(1)});
  t.AppendRow({Value::Int64(1), Value::Int64(2)});
  t.AppendRow({Value::Int64(1), Value::Int64(1)});
  Table out = Distinct(t, {"x", "y"}).value();
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(SortTest, AscendingNullsFirst) {
  Table out = Sort(TestTable(), {"d"}).value();
  EXPECT_TRUE(out.column(0).IsNull(0));
  EXPECT_EQ(out.column(0).Int64At(1), 1);
  EXPECT_EQ(out.column(0).Int64At(2), 2);
  EXPECT_EQ(out.column(0).Int64At(3), 2);
}

TEST(SortTest, StableWithinEqualKeys) {
  Table out = Sort(TestTable(), {"d"}).value();
  // The two d=2 rows keep input order: a=1.0 before a=3.0.
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(2), 1.0);
  EXPECT_DOUBLE_EQ(out.column(1).Float64At(3), 3.0);
}

TEST(SortTest, SecondaryKey) {
  Table t(Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
  t.AppendRow({Value::Int64(1), Value::Int64(2)});
  t.AppendRow({Value::Int64(1), Value::Int64(1)});
  t.AppendRow({Value::Int64(0), Value::Int64(9)});
  Table out = Sort(t, {"x", "y"}).value();
  EXPECT_EQ(out.column(0).Int64At(0), 0);
  EXPECT_EQ(out.column(1).Int64At(1), 1);
  EXPECT_EQ(out.column(1).Int64At(2), 2);
}

TEST(SortTest, StringsSortLexicographically) {
  Table t(Schema({{"s", DataType::kString}}));
  t.AppendRow({Value::String("pear")});
  t.AppendRow({Value::String("apple")});
  Table out = Sort(t, {"s"}).value();
  EXPECT_EQ(out.column(0).StringAt(0), "apple");
}

// Sort and SortBy share one comparator, which compares INT64 as int64: a
// double cannot tell 2^53 from 2^53 + 1.
TEST(SortTest, Int64KeysAbove2To53AreExact) {
  Table t(Schema({{"id", DataType::kInt64}}));
  t.AppendRow({Value::Int64(9007199254740993)});
  t.AppendRow({Value::Int64(9007199254740992)});
  t.AppendRow({Value::Int64(std::numeric_limits<int64_t>::max())});
  t.AppendRow({Value::Int64(std::numeric_limits<int64_t>::max() - 1)});
  Table asc = Sort(t, {"id"}).value();
  EXPECT_EQ(asc.column(0).Int64At(0), 9007199254740992);
  EXPECT_EQ(asc.column(0).Int64At(1), 9007199254740993);
  EXPECT_EQ(asc.column(0).Int64At(2), std::numeric_limits<int64_t>::max() - 1);
  EXPECT_EQ(asc.column(0).Int64At(3), std::numeric_limits<int64_t>::max());
  Table desc = SortBy(t, {{"id", true}}).value();
  EXPECT_EQ(desc.column(0).Int64At(0), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(desc.column(0).Int64At(1), std::numeric_limits<int64_t>::max() - 1);
  EXPECT_EQ(desc.column(0).Int64At(2), 9007199254740993);
  EXPECT_EQ(desc.column(0).Int64At(3), 9007199254740992);
}

TEST(InsertIntoTest, AppendsAllRows) {
  Table dst = TestTable();
  Table src = TestTable();
  ASSERT_TRUE(InsertInto(&dst, src).ok());
  EXPECT_EQ(dst.num_rows(), 8u);
}

TEST(InsertIntoTest, SchemaMismatchRejected) {
  Table dst = TestTable();
  Table other(Schema({{"d", DataType::kInt64}}));
  EXPECT_FALSE(InsertInto(&dst, other).ok());
  Table wrong_type(
      Schema({{"d", DataType::kString}, {"a", DataType::kFloat64}}));
  EXPECT_EQ(InsertInto(&dst, wrong_type).code(), StatusCode::kTypeMismatch);
}

}  // namespace
}  // namespace pctagg
