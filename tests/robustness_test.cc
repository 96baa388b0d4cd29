// Robustness tests: string-dimension percentage queries (the paper's
// state/city example uses string dimensions), empty and degenerate inputs
// through every planner, and a randomized parser fuzz sweep over every
// statement kind asserting that malformed SQL always comes back as a Status,
// never a crash.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/rng.h"
#include "core/database.h"

namespace pctagg {
namespace {

// Row equality with numeric tolerance: different strategies sum floats in
// different orders, so percentages can differ by ULPs.
void ExpectRowsNear(const std::vector<Value>& a, const std::vector<Value>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].is_null(), b[i].is_null()) << "field " << i;
    if (a[i].is_null()) continue;
    if (a[i].is_string()) {
      EXPECT_EQ(a[i].string(), b[i].string());
    } else {
      EXPECT_NEAR(a[i].AsDouble(), b[i].AsDouble(), 1e-9);
    }
  }
}

// String-typed dimensions with an occasional NULL dimension value.
Table StringFact(uint64_t seed, size_t n = 300) {
  Rng rng(seed);
  const char* regions[] = {"north", "south", "east", "west"};
  const char* products[] = {"widget", "gadget", "gizmo"};
  Table t(Schema({{"region", DataType::kString},
                  {"product", DataType::kString},
                  {"amount", DataType::kFloat64}}));
  for (size_t i = 0; i < n; ++i) {
    Value region = rng.Uniform(20) == 0
                       ? Value::Null()
                       : Value::String(regions[rng.Uniform(4)]);
    t.AppendRow({region, Value::String(products[rng.Uniform(3)]),
                 Value::Float64(1.0 + rng.NextDouble() * 9.0)});
  }
  return t;
}

TEST(RobustnessTest, StringDimensionsThroughAllVpctStrategies) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", StringFact(5)).ok());
  std::string sql =
      "SELECT region, product, Vpct(amount BY product) AS pct FROM f "
      "GROUP BY region, product ORDER BY region, product";
  Table best = db.QueryVpct(sql, VpctStrategy{}).value();
  for (int knob = 0; knob < 3; ++knob) {
    VpctStrategy s;
    if (knob == 0) s.matching_indexes = false;
    if (knob == 1) s.insert_result = false;
    if (knob == 2) s.fj_from_fk = false;
    Table alt = db.QueryVpct(sql, s).value();
    ASSERT_EQ(alt.num_rows(), best.num_rows());
    for (size_t i = 0; i < best.num_rows(); ++i) {
      ExpectRowsNear(alt.GetRow(i), best.GetRow(i));
    }
  }
  // NULL region forms its own 100% group (GROUP BY treats NULLs as equal).
  bool saw_null_region = false;
  for (size_t i = 0; i < best.num_rows(); ++i) {
    if (best.column(0).IsNull(i)) saw_null_region = true;
  }
  EXPECT_TRUE(saw_null_region);
}

TEST(RobustnessTest, StringDimensionsThroughAllHorizontalStrategies) {
  PctDatabase db;
  ASSERT_TRUE(db.CreateTable("f", StringFact(6)).ok());
  std::string sql =
      "SELECT region, Hpct(amount BY product) FROM f GROUP BY region "
      "ORDER BY region";
  Table reference = db.QueryHorizontal(sql, HorizontalStrategy{}).value();
  EXPECT_TRUE(reference.schema().HasColumn("product=widget"));
  for (HorizontalMethod method :
       {HorizontalMethod::kCaseFromFV, HorizontalMethod::kSpjDirect,
        HorizontalMethod::kSpjFromFV}) {
    for (bool dispatch : {true, false}) {
      HorizontalStrategy s;
      s.method = method;
      s.hash_dispatch = dispatch;
      Table alt = db.QueryHorizontal(sql, s).value();
      ASSERT_EQ(alt.num_rows(), reference.num_rows());
      ASSERT_EQ(alt.num_columns(), reference.num_columns());
      for (size_t i = 0; i < reference.num_rows(); ++i) {
        for (size_t c = 0; c < reference.num_columns(); ++c) {
          Value a = reference.column(c).GetValue(i);
          Value b = alt.column(c).GetValue(i);
          ASSERT_EQ(a.is_null(), b.is_null());
          if (!a.is_null() && a.is_float64()) {
            EXPECT_NEAR(a.AsDouble(), b.AsDouble(), 1e-9);
          }
        }
      }
    }
  }
}

TEST(RobustnessTest, EmptyFactTableThroughEveryPlanner) {
  PctDatabase db;
  Table empty(Schema({{"d1", DataType::kInt64},
                      {"d2", DataType::kInt64},
                      {"a", DataType::kFloat64}}));
  ASSERT_TRUE(db.CreateTable("f", std::move(empty)).ok());
  Result<Table> v = db.Query(
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v.value().num_rows(), 0u);
  for (HorizontalMethod method :
       {HorizontalMethod::kCaseDirect, HorizontalMethod::kCaseFromFV,
        HorizontalMethod::kSpjDirect, HorizontalMethod::kSpjFromFV}) {
    HorizontalStrategy s;
    s.method = method;
    Result<Table> h =
        db.QueryHorizontal("SELECT d1, Hpct(a BY d2) FROM f GROUP BY d1", s);
    ASSERT_TRUE(h.ok()) << HorizontalMethodName(method) << ": "
                        << h.status().ToString();
    EXPECT_EQ(h.value().num_rows(), 0u) << HorizontalMethodName(method);
  }
  Result<Table> o = db.QueryOlapBaseline(
      "SELECT d1, d2, Vpct(a BY d2) AS pct FROM f GROUP BY d1, d2");
  ASSERT_TRUE(o.ok()) << o.status().ToString();
  EXPECT_EQ(o.value().num_rows(), 0u);
}

TEST(RobustnessTest, SingleRowAndAllNullMeasures) {
  PctDatabase db;
  Table f(Schema({{"d1", DataType::kInt64},
                  {"d2", DataType::kInt64},
                  {"a", DataType::kFloat64}}));
  f.AppendRow({Value::Int64(1), Value::Int64(1), Value::Float64(5)});
  ASSERT_TRUE(db.CreateTable("one", std::move(f)).ok());
  Table v = db.Query("SELECT d1, d2, Vpct(a BY d2) AS pct FROM one "
                     "GROUP BY d1, d2")
                .value();
  ASSERT_EQ(v.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(v.ColumnByName("pct").value()->Float64At(0), 1.0);

  Table nulls(Schema({{"d1", DataType::kInt64},
                      {"d2", DataType::kInt64},
                      {"a", DataType::kFloat64}}));
  nulls.AppendRow({Value::Int64(1), Value::Int64(1), Value::Null()});
  nulls.AppendRow({Value::Int64(1), Value::Int64(2), Value::Null()});
  ASSERT_TRUE(db.CreateTable("nn", std::move(nulls)).ok());
  Table nv = db.Query("SELECT d1, d2, Vpct(a BY d2) AS pct FROM nn "
                      "GROUP BY d1, d2")
                 .value();
  for (size_t i = 0; i < nv.num_rows(); ++i) {
    EXPECT_TRUE(nv.ColumnByName("pct").value()->IsNull(i));
  }
}

// Parser fuzz: random token soups of every statement kind, sent through
// Execute, must produce Status errors, not crashes.
class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, NeverCrashes) {
  Rng rng(GetParam());
  // The one string literal names no file, so a COPY that parses fails to
  // read it.
  const char kMissingFile[] = "pctagg_fuzz_no_such_file.csv";
  ASSERT_FALSE(std::filesystem::exists(kMissingFile));
  const std::string literal = std::string("'") + kMissingFile + "'";
  const char* tokens[] = {
      // The SELECT grammar.
      "SELECT", "FROM", "GROUP", "BY", "Vpct", "Hpct", "sum", "(", ")", ",",
      "*", "f", "a", "d1", "WHERE", "AND", "CASE", "WHEN", "THEN", "END", "1",
      "2.5", literal.c_str(), "OVER", "PARTITION", "ORDER", "DESC", "LIMIT",
      "HAVING", ";", "<", "=", "+", "/", "DISTINCT", "DEFAULT", "IS", "NULL",
      "NOT", "AS",
      // The other statements and the EXPLAIN prefix.
      "INSERT", "INTO", "VALUES", "COPY", "APPEND", "DROP", "TABLE", "IF",
      "EXISTS", "CHECKPOINT", "CREATE", "EXPLAIN", "ANALYZE"};
  // No storage is attached, so CHECKPOINT and DROP touch no file.
  PctDatabase db;
  auto create_fixture = [&db] {
    Table f(Schema({{"d1", DataType::kInt64}, {"a", DataType::kFloat64}}));
    f.AppendRow({Value::Int64(1), Value::Float64(1)}).ok();
    db.CreateTable("f", std::move(f)).ok();
  };
  create_fixture();
  for (int q = 0; q < 60; ++q) {
    std::string sql;
    size_t len = 2 + rng.Uniform(18);
    for (size_t i = 0; i < len; ++i) {
      sql += tokens[rng.Uniform(std::size(tokens))];
      sql += " ";
    }
    // Must not crash; errors come back as Status values.
    Result<Table> r = db.Execute(sql);
    if (!r.ok()) {
      EXPECT_FALSE(r.status().message().empty()) << sql;
    }
    if (!db.catalog().HasTable("f")) create_fixture();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace pctagg
