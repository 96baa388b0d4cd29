// Unit tests for the vectorized expression evaluator: arithmetic with NULL
// propagation, NULL-on-zero division (the Vpct safety net), three-valued
// logic, comparisons and CASE WHEN — plus the WHERE keep mask, checked
// against Evaluate() by a seeded differential sweep of random predicates.

#include "engine/expression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/table.h"

namespace pctagg {
namespace {

// d: 1, 2, NULL; a: 10.0, 0.0, 4.0; s: "x", "y", "x"
Table TestTable() {
  Table t(Schema({{"d", DataType::kInt64},
                  {"a", DataType::kFloat64},
                  {"s", DataType::kString}}));
  t.AppendRow({Value::Int64(1), Value::Float64(10.0), Value::String("x")});
  t.AppendRow({Value::Int64(2), Value::Float64(0.0), Value::String("y")});
  t.AppendRow({Value::Null(), Value::Float64(4.0), Value::String("x")});
  return t;
}

TEST(ExpressionTest, LiteralBroadcasts) {
  Table t = TestTable();
  Column c = Lit(Value::Int64(7))->Evaluate(t).value();
  ASSERT_EQ(c.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(c.Int64At(i), 7);
}

TEST(ExpressionTest, NullLiteralTyped) {
  Table t = TestTable();
  ExprPtr e = NullLit(DataType::kFloat64);
  EXPECT_EQ(e->ResultType(t.schema()).value(), DataType::kFloat64);
  Column c = e->Evaluate(t).value();
  EXPECT_TRUE(c.IsNull(0));
}

TEST(ExpressionTest, ColumnRefCopies) {
  Table t = TestTable();
  Column c = Col("a")->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 10.0);
  EXPECT_FALSE(Col("zzz")->Evaluate(t).ok());
}

TEST(ExpressionTest, ArithmeticTypesAndNulls) {
  Table t = TestTable();
  // int + int stays int.
  Column ii = Add(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value();
  EXPECT_EQ(ii.type(), DataType::kInt64);
  EXPECT_EQ(ii.Int64At(0), 2);
  EXPECT_TRUE(ii.IsNull(2));  // NULL propagates
  // int * float widens.
  Column f = Mul(Col("d"), Col("a"))->Evaluate(t).value();
  EXPECT_EQ(f.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(f.Float64At(0), 10.0);
  // Strings are rejected.
  EXPECT_EQ(Add(Col("s"), Col("d"))->Evaluate(t).status().code(),
            StatusCode::kTypeMismatch);
}

TEST(ExpressionTest, DivisionByZeroYieldsNull) {
  Table t = TestTable();
  Column c = Div(Lit(Value::Float64(1.0)), Col("a"))->Evaluate(t).value();
  EXPECT_EQ(c.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(c.Float64At(0), 0.1);
  EXPECT_TRUE(c.IsNull(1));  // 1/0 -> NULL, matching Vpct() semantics
  EXPECT_DOUBLE_EQ(c.Float64At(2), 0.25);
}

TEST(ExpressionTest, IntegerDivisionProducesFloat) {
  Table t = TestTable();
  Column c = Div(Lit(Value::Int64(1)), Lit(Value::Int64(2)))->Evaluate(t).value();
  EXPECT_EQ(c.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(c.Float64At(0), 0.5);
}

TEST(ExpressionTest, ComparisonsWithNulls) {
  Table t = TestTable();
  Column eq = Eq(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value();
  EXPECT_EQ(eq.Int64At(0), 1);
  EXPECT_EQ(eq.Int64At(1), 0);
  EXPECT_TRUE(eq.IsNull(2));  // NULL = 1 is UNKNOWN
  Column lt = Lt(Col("a"), Lit(Value::Float64(5.0)))->Evaluate(t).value();
  EXPECT_EQ(lt.Int64At(0), 0);
  EXPECT_EQ(lt.Int64At(1), 1);
  EXPECT_EQ(lt.Int64At(2), 1);
}

TEST(ExpressionTest, StringComparisons) {
  Table t = TestTable();
  Column eq = Eq(Col("s"), Lit(Value::String("x")))->Evaluate(t).value();
  EXPECT_EQ(eq.Int64At(0), 1);
  EXPECT_EQ(eq.Int64At(1), 0);
  EXPECT_EQ(eq.Int64At(2), 1);
  EXPECT_EQ(Eq(Col("s"), Col("d"))->Evaluate(t).status().code(),
            StatusCode::kTypeMismatch);
}

TEST(ExpressionTest, AllComparisonOps) {
  Table t = TestTable();
  EXPECT_EQ(Ne(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value().Int64At(1), 1);
  EXPECT_EQ(Le(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value().Int64At(0), 1);
  EXPECT_EQ(Gt(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value().Int64At(1), 1);
  EXPECT_EQ(Ge(Col("d"), Lit(Value::Int64(2)))->Evaluate(t).value().Int64At(1), 1);
}

TEST(ExpressionTest, ThreeValuedLogic) {
  Table t = TestTable();
  ExprPtr unknown = Eq(Col("d"), Lit(Value::Int64(1)));  // UNKNOWN on row 2
  ExprPtr truth = Lit(Value::Int64(1));
  ExprPtr falsity = Lit(Value::Int64(0));
  // UNKNOWN AND FALSE = FALSE.
  Column c1 = And(unknown, falsity)->Evaluate(t).value();
  EXPECT_EQ(c1.Int64At(2), 0);
  // UNKNOWN AND TRUE = UNKNOWN.
  Column c2 = And(unknown, truth)->Evaluate(t).value();
  EXPECT_TRUE(c2.IsNull(2));
  // UNKNOWN OR TRUE = TRUE.
  Column c3 = Or(unknown, truth)->Evaluate(t).value();
  EXPECT_EQ(c3.Int64At(2), 1);
  // UNKNOWN OR FALSE = UNKNOWN.
  Column c4 = Or(unknown, falsity)->Evaluate(t).value();
  EXPECT_TRUE(c4.IsNull(2));
  // NOT UNKNOWN = UNKNOWN.
  Column c5 = Not(unknown)->Evaluate(t).value();
  EXPECT_TRUE(c5.IsNull(2));
  EXPECT_EQ(c5.Int64At(0), 0);
}

TEST(ExpressionTest, IsNull) {
  Table t = TestTable();
  Column c = IsNull(Col("d"))->Evaluate(t).value();
  EXPECT_EQ(c.Int64At(0), 0);
  EXPECT_EQ(c.Int64At(2), 1);
  Column n = Not(IsNull(Col("d")))->Evaluate(t).value();
  EXPECT_EQ(n.Int64At(2), 0);
}

TEST(ExpressionTest, AndAllEmptyIsTrue) {
  Table t = TestTable();
  Column c = AndAll({})->Evaluate(t).value();
  EXPECT_EQ(c.Int64At(0), 1);
}

TEST(ExpressionTest, CaseWhenFirstMatchWins) {
  Table t = TestTable();
  ExprPtr e = CaseWhen(
      {{Ge(Col("a"), Lit(Value::Float64(5.0))), Lit(Value::Int64(1))},
       {Ge(Col("a"), Lit(Value::Float64(0.0))), Lit(Value::Int64(2))}},
      Lit(Value::Int64(3)));
  Column c = e->Evaluate(t).value();
  EXPECT_EQ(c.Int64At(0), 1);  // 10 >= 5
  EXPECT_EQ(c.Int64At(1), 2);  // 0 >= 0
  EXPECT_EQ(c.Int64At(2), 2);  // 4 >= 0
}

TEST(ExpressionTest, CaseWhenElseNullDefault) {
  Table t = TestTable();
  ExprPtr e = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))), Col("a")}},
                       nullptr);
  Column c = e->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 10.0);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_TRUE(c.IsNull(2));  // UNKNOWN condition does not match
}

TEST(ExpressionTest, CaseWhenTypeWidening) {
  Table t = TestTable();
  ExprPtr e = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))),
                         Lit(Value::Int64(1))}},
                       Lit(Value::Float64(0.5)));
  EXPECT_EQ(e->ResultType(t.schema()).value(), DataType::kFloat64);
  Column c = e->Evaluate(t).value();
  EXPECT_DOUBLE_EQ(c.Float64At(0), 1.0);
  EXPECT_DOUBLE_EQ(c.Float64At(1), 0.5);
}

TEST(ExpressionTest, CaseWhenMixedStringNumericRejected) {
  Table t = TestTable();
  ExprPtr e = CaseWhen({{Eq(Col("d"), Lit(Value::Int64(1))), Col("s")}},
                       Lit(Value::Int64(0)));
  EXPECT_EQ(e->ResultType(t.schema()).status().code(),
            StatusCode::kTypeMismatch);
}

TEST(ExpressionTest, ToStringRendersSql) {
  ExprPtr e = CaseWhen({{Ne(Col("tot"), Lit(Value::Int64(0))),
                         Div(Col("a"), Col("tot"))}},
                       nullptr);
  EXPECT_EQ(e->ToString(),
            "CASE WHEN tot <> 0 THEN (a / tot) END");
  EXPECT_EQ(And(Eq(Col("x"), Lit(Value::Int64(1))), IsNull(Col("y")))->ToString(),
            "(x = 1 AND y IS NULL)");
}

TEST(ExpressionTest, EvaluateOnEmptyTable) {
  Table t(Schema({{"d", DataType::kInt64}}));
  Column c = Add(Col("d"), Lit(Value::Int64(1)))->Evaluate(t).value();
  EXPECT_EQ(c.size(), 0u);
}

// --- Keep mask ---------------------------------------------------------------

// The reference the keep mask must equal: Evaluate, then valid && value != 0.
std::vector<uint8_t> MaskByEvaluate(const ExprPtr& e, const Table& t) {
  Result<Column> c = e->Evaluate(t);
  EXPECT_TRUE(c.ok()) << e->ToString() << ": " << c.status().ToString();
  if (!c.ok()) return {};
  std::vector<uint8_t> mask(c->size());
  for (size_t i = 0; i < c->size(); ++i) {
    mask[i] = !c->IsNull(i) && c->Int64At(i) != 0;
  }
  return mask;
}

std::vector<uint8_t> KeepMaskOf(const ExprPtr& e, const Table& t) {
  Result<std::vector<uint8_t>> mask = e->KeepMask(t);
  EXPECT_TRUE(mask.ok()) << e->ToString() << ": " << mask.status().ToString();
  return mask.ok() ? *mask : std::vector<uint8_t>();
}

// INT64 values just above 2^53 are distinct integers but round to the same
// double, so comparing them as doubles answers wrongly.
Table Int53Table() {
  Table t(Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
  t.AppendRow({Value::Int64(9007199254740992), Value::Int64(1)});
  t.AppendRow({Value::Int64(9007199254740993), Value::Int64(2)});
  t.AppendRow({Value::Int64(9007199254740994), Value::Int64(4)});
  return t;
}

TEST(ExpressionTest, Int64ComparisonsAbove2To53AreExact) {
  Table t = Int53Table();
  const struct {
    ExprPtr predicate;
    std::vector<uint8_t> want;
  } cases[] = {
      {Eq(Col("id"), Lit(Value::Int64(9007199254740993))), {0, 1, 0}},
      {Gt(Col("id"), Lit(Value::Int64(9007199254740992))), {0, 1, 1}},
      // Constant on the left, and a computed INT64 operand.
      {Lt(Lit(Value::Int64(9007199254740992)), Col("id")), {0, 1, 1}},
      {Ne(Add(Col("id"), Lit(Value::Int64(0))),
          Lit(Value::Int64(9007199254740993))),
       {1, 0, 1}},
      // INT64 against FLOAT64 keeps double semantics: 2^53 + 1 rounds to
      // 2^53.
      {Eq(Col("id"), Lit(Value::Float64(9007199254740992.0))), {1, 1, 0}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.predicate->ToString());
    EXPECT_EQ(MaskByEvaluate(c.predicate, t), c.want);
    EXPECT_EQ(KeepMaskOf(c.predicate, t), c.want);
  }
}

TEST(ExpressionTest, KeepMaskDropsUnknownRows) {
  Table t = TestTable();  // d: 1, 2, NULL
  const ExprPtr unknown = Eq(Col("d"), Lit(Value::Int64(1)));
  EXPECT_EQ(KeepMaskOf(unknown, t), (std::vector<uint8_t>{1, 0, 0}));
  // NOT UNKNOWN is UNKNOWN: NOT keeps neither the NULL row nor row 0.
  EXPECT_EQ(KeepMaskOf(Not(unknown), t), (std::vector<uint8_t>{0, 1, 0}));
  EXPECT_EQ(KeepMaskOf(Or(unknown, IsNull(Col("d"))), t),
            (std::vector<uint8_t>{1, 0, 1}));
  EXPECT_EQ(KeepMaskOf(Gt(Col("d"), NullLit(DataType::kInt64)), t),
            (std::vector<uint8_t>{0, 0, 0}));
}

TEST(ExpressionTest, KeepMaskReportsEvaluateErrors) {
  Table t = TestTable();
  for (const ExprPtr& e :
       {Eq(Col("s"), Lit(Value::Int64(1))), Lt(Lit(Value::Int64(1)), Col("s")),
        Gt(Col("zzz"), Lit(Value::Int64(1))), Col("a"),
        And(Col("a"), Lit(Value::Int64(1)))}) {
    SCOPED_TRACE(e->ToString());
    Result<std::vector<uint8_t>> mask = e->KeepMask(t);
    ASSERT_FALSE(mask.ok());
    if (e->ResultType(t.schema()).ok()) {
      // Well-typed but not boolean: the filter-predicate check.
      EXPECT_EQ(mask.status().code(), StatusCode::kTypeMismatch);
    } else {
      EXPECT_EQ(mask.status().code(),
                e->ResultType(t.schema()).status().code());
    }
  }
}

// Differential sweep: random predicate trees over seeded tables whose INT64
// and FLOAT64 columns hold NULLs, NaN, infinities, signed zeros and values
// around +-2^53. Every tree's keep mask must equal Evaluate's, row for row.
class KeepMaskSweep {
 public:
  explicit KeepMaskSweep(uint64_t seed) : rng_(seed) {}

  Table MakeTable(size_t rows) {
    Table t(Schema({{"i1", DataType::kInt64},
                    {"i2", DataType::kInt64},
                    {"f1", DataType::kFloat64},
                    {"f2", DataType::kFloat64}}));
    for (size_t r = 0; r < rows; ++r) {
      t.AppendRow({IntValue(true), IntValue(true), FloatValue(true),
                   FloatValue(true)});
    }
    return t;
  }

  // A predicate (INT64 0/1 result) of at most `depth` connective levels.
  ExprPtr Predicate(int depth) {
    const uint64_t pick = rng_.Uniform(depth > 0 ? 10 : 5);
    switch (pick) {
      case 0:
      case 1:
      case 2:
        return Comparison();
      case 3:
        return IsNull(Operand());
      case 4:
        // A bare INT64 column is TRUE wherever it is non-zero.
        return Col(rng_.Uniform(2) == 0 ? "i1" : "i2");
      case 5:
        return And(Predicate(depth - 1), Predicate(depth - 1));
      case 6:
        return Or(Predicate(depth - 1), Predicate(depth - 1));
      case 7:
        return Not(Predicate(depth - 1));
      case 8:
        return Not(IsNull(Predicate(depth - 1)));  // IS NOT NULL
      default:
        return IsNull(Predicate(depth - 1));
    }
  }

 private:
  static constexpr int64_t k2To53 = int64_t{1} << 53;

  Value IntValue(bool nullable) {
    switch (rng_.Uniform(nullable ? 6 : 5)) {
      case 0:
        return Value::Int64(0);
      case 1:
        return Value::Int64(rng_.UniformRange(-3, 3));
      case 2:
        return Value::Int64(k2To53 + rng_.UniformRange(-2, 2));
      case 3:
        return Value::Int64(-k2To53 + rng_.UniformRange(-2, 2));
      case 4:
        return Value::Int64(rng_.UniformRange(-1000, 1000));
      default:
        return Value::Null();
    }
  }

  Value FloatValue(bool nullable) {
    static const double kSpecial[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        0.0,
        -0.0,
        0.5,
        -2.5,
        9007199254740992.0,
        9007199254740994.0,
        -9007199254740992.0};
    switch (rng_.Uniform(nullable ? 5 : 4)) {
      case 0:
      case 1:
        return Value::Float64(kSpecial[rng_.Uniform(std::size(kSpecial))]);
      case 2:
        return Value::Float64(static_cast<double>(rng_.UniformRange(-3, 3)));
      case 3:
        return Value::Float64(rng_.NextDouble() * 200.0 - 100.0);
      default:
        return Value::Null();
    }
  }

  ExprPtr Constant() {
    switch (rng_.Uniform(5)) {
      case 0:
      case 1:
        return Lit(IntValue(false));
      case 2:
      case 3:
        return Lit(FloatValue(false));
      default:
        return NullLit(rng_.Uniform(2) == 0 ? DataType::kInt64
                                            : DataType::kFloat64);
    }
  }

  ExprPtr ColumnRef() {
    static const char* kNames[] = {"i1", "i2", "f1", "f2"};
    return Col(kNames[rng_.Uniform(4)]);
  }

  // A numeric operand: a column, a constant, or one level of arithmetic.
  ExprPtr Operand() {
    switch (rng_.Uniform(4)) {
      case 0:
        return Constant();
      case 1: {
        // No *: products of values near 2^53 would overflow INT64.
        ExprPtr l = ColumnRef();
        ExprPtr r = rng_.Uniform(2) == 0 ? ColumnRef() : Constant();
        switch (rng_.Uniform(3)) {
          case 0:
            return Add(l, r);
          case 1:
            return Sub(l, r);
          default:
            return Div(l, r);
        }
      }
      default:
        return ColumnRef();
    }
  }

  ExprPtr Comparison() {
    ExprPtr l;
    ExprPtr r;
    switch (rng_.Uniform(4)) {
      case 0:  // column against a constant
        l = ColumnRef();
        r = Constant();
        break;
      case 1:  // constant against a column
        l = Constant();
        r = ColumnRef();
        break;
      case 2:  // column against column
        l = ColumnRef();
        r = ColumnRef();
        break;
      default:
        l = Operand();
        r = Operand();
        break;
    }
    switch (rng_.Uniform(6)) {
      case 0:
        return Eq(l, r);
      case 1:
        return Ne(l, r);
      case 2:
        return Lt(l, r);
      case 3:
        return Le(l, r);
      case 4:
        return Gt(l, r);
      default:
        return Ge(l, r);
    }
  }

  Rng rng_;
};

TEST(ExpressionTest, KeepMaskMatchesEvaluateOnRandomPredicates) {
  size_t checked = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    KeepMaskSweep sweep(seed);
    std::vector<Table> tables;
    for (size_t rows : {size_t{0}, size_t{1}, size_t{37}, size_t{400}}) {
      tables.push_back(sweep.MakeTable(rows));
    }
    for (int i = 0; i < 250; ++i) {
      const ExprPtr e = sweep.Predicate(3);
      for (const Table& t : tables) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(t.num_rows()) + " rows: " + e->ToString());
        const std::vector<uint8_t> want = MaskByEvaluate(e, t);
        ASSERT_EQ(KeepMaskOf(e, t), want);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 8u * 250u * 4u);
}

}  // namespace
}  // namespace pctagg
