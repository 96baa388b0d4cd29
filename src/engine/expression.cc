#include "engine/expression.h"

#include <cassert>
#include <cmath>

#include "common/string_util.h"

namespace pctagg {

namespace {

// Widens INT64/FLOAT64 pairs; errors on strings in arithmetic.
Result<DataType> NumericResultType(DataType l, DataType r, const char* op) {
  if (l == DataType::kString || r == DataType::kString) {
    return Status::TypeMismatch(std::string("operator ") + op +
                                " requires numeric operands");
  }
  if (l == DataType::kFloat64 || r == DataType::kFloat64) {
    return DataType::kFloat64;
  }
  return DataType::kInt64;
}

class LiteralExpr : public Expression {
 public:
  LiteralExpr(Value v, DataType type) : value_(std::move(v)), type_(type) {}

  Result<DataType> ResultType(const Schema&) const override { return type_; }

  Result<Column> Evaluate(const Table& table) const override {
    Column out(type_);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      PCTAGG_RETURN_IF_ERROR(out.AppendValue(value_));
    }
    return out;
  }

  std::string ToString() const override { return value_.ToString(); }

  const Value& value() const { return value_; }

 private:
  Value value_;
  DataType type_;
};

class ColumnRefExpr : public Expression {
 public:
  explicit ColumnRefExpr(std::string name) : name_(std::move(name)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, schema.FindColumn(name_));
    return schema.column(idx).type;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(name_));
    return *col;  // copy; callers own their outputs
  }

  std::string ToString() const override { return name_; }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
};

enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

class ArithExpr : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType lt, left_->ResultType(schema));
    PCTAGG_ASSIGN_OR_RETURN(DataType rt, right_->ResultType(schema));
    if (op_ == ArithOp::kDiv) {
      // Division always produces FLOAT64 (percentages are fractions).
      if (lt == DataType::kString || rt == DataType::kString) {
        return Status::TypeMismatch("operator / requires numeric operands");
      }
      return DataType::kFloat64;
    }
    return NumericResultType(lt, rt, ArithOpName(op_));
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    PCTAGG_ASSIGN_OR_RETURN(Column lc, left_->Evaluate(table));
    PCTAGG_ASSIGN_OR_RETURN(Column rc, right_->Evaluate(table));
    Column out(out_type);
    out.Reserve(table.num_rows());
    const bool int_out = out_type == DataType::kInt64;
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (lc.IsNull(i) || rc.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      if (int_out) {
        int64_t a = lc.Int64At(i);
        int64_t b = rc.Int64At(i);
        switch (op_) {
          case ArithOp::kAdd:
            out.AppendInt64(a + b);
            break;
          case ArithOp::kSub:
            out.AppendInt64(a - b);
            break;
          case ArithOp::kMul:
            out.AppendInt64(a * b);
            break;
          case ArithOp::kDiv:
            assert(false && "integer division routed to FLOAT64");
            break;
        }
      } else {
        double a = lc.NumericAt(i);
        double b = rc.NumericAt(i);
        switch (op_) {
          case ArithOp::kAdd:
            out.AppendFloat64(a + b);
            break;
          case ArithOp::kSub:
            out.AppendFloat64(a - b);
            break;
          case ArithOp::kMul:
            out.AppendFloat64(a * b);
            break;
          case ArithOp::kDiv:
            // NULL on zero divisor: the engine-level safety net matching
            // Vpct()'s "result is NULL when dividing by zero".
            if (b == 0.0) {
              out.AppendNull();
            } else {
              out.AppendFloat64(a / b);
            }
            break;
        }
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + " " + ArithOpName(op_) + " " +
           right_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool CmpHolds(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq:
      return cmp == 0;
    case CmpOp::kNe:
      return cmp != 0;
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
  }
  return false;
}

// Keep-mask kernel for `x[i] op c` over an INT64 column read in place:
// mask[i] = valid[i] && (x[i] op c), compared as int64. The operator is
// chosen once, outside the row loop.
void CompareInt64ConstMask(CmpOp op, const int64_t* x, const uint8_t* valid,
                           size_t n, int64_t c, uint8_t* mask) {
  auto run = [&](auto holds) {
    for (size_t i = 0; i < n; ++i) {
      mask[i] = static_cast<uint8_t>((valid[i] != 0) & holds(x[i]));
    }
  };
  switch (op) {
    case CmpOp::kEq:
      run([c](int64_t v) { return v == c; });
      break;
    case CmpOp::kNe:
      run([c](int64_t v) { return v != c; });
      break;
    case CmpOp::kLt:
      run([c](int64_t v) { return v < c; });
      break;
    case CmpOp::kLe:
      run([c](int64_t v) { return v <= c; });
      break;
    case CmpOp::kGt:
      run([c](int64_t v) { return v > c; });
      break;
    case CmpOp::kGe:
      run([c](int64_t v) { return v >= c; });
      break;
  }
}

class CompareExpr : public Expression {
 public:
  CompareExpr(CmpOp op, ExprPtr l, ExprPtr r)
      : op_(op), left_(std::move(l)), right_(std::move(r)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType lt, left_->ResultType(schema));
    PCTAGG_ASSIGN_OR_RETURN(DataType rt, right_->ResultType(schema));
    bool l_str = lt == DataType::kString;
    bool r_str = rt == DataType::kString;
    if (l_str != r_str) {
      return Status::TypeMismatch("cannot compare string with numeric");
    }
    return DataType::kInt64;  // boolean
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_RETURN_IF_ERROR(ResultType(table.schema()).status());
    PCTAGG_ASSIGN_OR_RETURN(Column lc, left_->Evaluate(table));
    PCTAGG_ASSIGN_OR_RETURN(Column rc, right_->Evaluate(table));
    Column out(DataType::kInt64);
    out.Reserve(table.num_rows());
    const bool strings = lc.type() == DataType::kString;
    if (strings && (op_ == CmpOp::kEq || op_ == CmpOp::kNe)) {
      // Equality over dictionary-encoded columns is a code comparison: no
      // payload bytes are touched. When the sides use different
      // dictionaries, the smaller one is translated into the other's code
      // space once (one Find per distinct string), and kInvalidCode for
      // strings the other side never interned makes those rows compare
      // unequal — exactly the per-row string comparison's answer.
      const bool want_eq = op_ == CmpOp::kEq;
      const uint32_t* lcodes = lc.codes().data();
      const uint32_t* rcodes = rc.codes().data();
      std::vector<uint32_t> lmap;  // left code -> right code space
      if (lc.dict() != rc.dict()) {
        const Dictionary& ld = *lc.dict();
        const Dictionary& rd = *rc.dict();
        lmap.resize(ld.size());
        for (size_t c = 0; c < lmap.size(); ++c) {
          lmap[c] = rd.Find(ld.value(static_cast<uint32_t>(c)));
        }
      }
      for (size_t i = 0; i < table.num_rows(); ++i) {
        if (lc.IsNull(i) || rc.IsNull(i)) {
          out.AppendNull();
          continue;
        }
        const uint32_t l = lmap.empty() ? lcodes[i] : lmap[lcodes[i]];
        out.AppendInt64((l == rcodes[i]) == want_eq ? 1 : 0);
      }
      return out;
    }
    // INT64 against INT64 compares exactly, with no rounding above 2^53; a
    // FLOAT64 on either side widens both to double.
    const bool ints =
        lc.type() == DataType::kInt64 && rc.type() == DataType::kInt64;
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (lc.IsNull(i) || rc.IsNull(i)) {
        out.AppendNull();
        continue;
      }
      int cmp;
      if (strings) {
        cmp = lc.StringAt(i).compare(rc.StringAt(i));
        cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      } else if (ints) {
        const int64_t a = lc.Int64At(i);
        const int64_t b = rc.Int64At(i);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      } else {
        double a = lc.NumericAt(i);
        double b = rc.NumericAt(i);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
      }
      out.AppendInt64(CmpHolds(op_, cmp) ? 1 : 0);
    }
    return out;
  }

  // Typed kernel for an INT64 column against an INT64 constant
  // (`month <= 6`), the shape of the filtered scans measured in
  // EXPERIMENTS.md: the column's array and validity are read in place, with
  // no copy and no broadcast of the constant. Every other shape takes the
  // default.
  Result<std::vector<uint8_t>> KeepMask(const Table& table) const override {
    const auto* ref = dynamic_cast<const ColumnRefExpr*>(left_.get());
    const auto* lit = dynamic_cast<const LiteralExpr*>(right_.get());
    if (ref == nullptr || lit == nullptr || !lit->value().is_int64()) {
      return Expression::KeepMask(table);
    }
    Result<const Column*> col = table.ColumnByName(ref->name());
    if (!col.ok() || (*col)->type() != DataType::kInt64) {
      return Expression::KeepMask(table);
    }
    std::vector<uint8_t> mask((*col)->size());
    CompareInt64ConstMask(op_, (*col)->int64_data().data(),
                          (*col)->validity().data(), mask.size(),
                          lit->value().int64(), mask.data());
    return mask;
  }

  std::string ToString() const override {
    return left_->ToString() + " " + CmpOpName(op_) + " " + right_->ToString();
  }

 private:
  CmpOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

// AND, OR, NOT and CASE WHEN read their operands as booleans (INT64 0/1). A
// FLOAT64 or string operand is a type error, not a read of the wrong array.
Status CheckBoolean(const Column& c, const char* op) {
  if (c.type() == DataType::kInt64) return Status::OK();
  return Status::TypeMismatch(std::string(op) + " operand must be boolean");
}

class LogicalExpr : public Expression {
 public:
  LogicalExpr(bool is_and, ExprPtr l, ExprPtr r)
      : is_and_(is_and), left_(std::move(l)), right_(std::move(r)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_RETURN_IF_ERROR(left_->ResultType(schema).status());
    PCTAGG_RETURN_IF_ERROR(right_->ResultType(schema).status());
    return DataType::kInt64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(Column lc, left_->Evaluate(table));
    PCTAGG_ASSIGN_OR_RETURN(Column rc, right_->Evaluate(table));
    const char* name = is_and_ ? "AND" : "OR";
    PCTAGG_RETURN_IF_ERROR(CheckBoolean(lc, name));
    PCTAGG_RETURN_IF_ERROR(CheckBoolean(rc, name));
    Column out(DataType::kInt64);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      // Three-valued logic: -1 encodes UNKNOWN locally.
      int a = lc.IsNull(i) ? -1 : (lc.Int64At(i) != 0 ? 1 : 0);
      int b = rc.IsNull(i) ? -1 : (rc.Int64At(i) != 0 ? 1 : 0);
      int v;
      if (is_and_) {
        v = (a == 0 || b == 0) ? 0 : ((a == 1 && b == 1) ? 1 : -1);
      } else {
        v = (a == 1 || b == 1) ? 1 : ((a == 0 && b == 0) ? 0 : -1);
      }
      if (v < 0) {
        out.AppendNull();
      } else {
        out.AppendInt64(v);
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "(" + left_->ToString() + (is_and_ ? " AND " : " OR ") +
           right_->ToString() + ")";
  }

 private:
  bool is_and_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr e) : expr_(std::move(e)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_RETURN_IF_ERROR(expr_->ResultType(schema).status());
    return DataType::kInt64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(Column c, expr_->Evaluate(table));
    PCTAGG_RETURN_IF_ERROR(CheckBoolean(c, "NOT"));
    Column out(DataType::kInt64);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      if (c.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendInt64(c.Int64At(i) != 0 ? 0 : 1);
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "NOT (" + expr_->ToString() + ")";
  }

 private:
  ExprPtr expr_;
};

class IsNullExpr : public Expression {
 public:
  explicit IsNullExpr(ExprPtr e) : expr_(std::move(e)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_RETURN_IF_ERROR(expr_->ResultType(schema).status());
    return DataType::kInt64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(Column c, expr_->Evaluate(table));
    Column out(DataType::kInt64);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      out.AppendInt64(c.IsNull(i) ? 1 : 0);
    }
    return out;
  }

  std::string ToString() const override {
    return expr_->ToString() + " IS NULL";
  }

 private:
  ExprPtr expr_;
};

class CaseWhenExpr : public Expression {
 public:
  CaseWhenExpr(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
               ExprPtr else_expr)
      : branches_(std::move(branches)), else_expr_(std::move(else_expr)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    if (branches_.empty()) {
      return Status::InvalidArgument("CASE requires at least one WHEN");
    }
    DataType out = DataType::kInt64;
    bool first = true;
    for (const auto& [cond, result] : branches_) {
      PCTAGG_RETURN_IF_ERROR(cond->ResultType(schema).status());
      PCTAGG_ASSIGN_OR_RETURN(DataType rt, result->ResultType(schema));
      if (first) {
        out = rt;
        first = false;
      } else if (rt != out) {
        // Numeric widening across branches.
        if (rt == DataType::kString || out == DataType::kString) {
          return Status::TypeMismatch("CASE branches mix string and numeric");
        }
        out = DataType::kFloat64;
      }
    }
    if (else_expr_ != nullptr) {
      PCTAGG_ASSIGN_OR_RETURN(DataType et, else_expr_->ResultType(schema));
      if (et != out) {
        if (et == DataType::kString || out == DataType::kString) {
          return Status::TypeMismatch("CASE branches mix string and numeric");
        }
        out = DataType::kFloat64;
      }
    }
    return out;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    size_t n = table.num_rows();
    // Evaluate all branch conditions and results. This deliberately performs
    // the O(N)-per-row work the paper criticizes; the optimized hash-dispatch
    // path lives in the pivot operator.
    std::vector<Column> conds;
    std::vector<Column> results;
    conds.reserve(branches_.size());
    results.reserve(branches_.size());
    for (const auto& [cond, result] : branches_) {
      PCTAGG_ASSIGN_OR_RETURN(Column c, cond->Evaluate(table));
      PCTAGG_RETURN_IF_ERROR(CheckBoolean(c, "CASE WHEN"));
      PCTAGG_ASSIGN_OR_RETURN(Column r, result->Evaluate(table));
      conds.push_back(std::move(c));
      results.push_back(std::move(r));
    }
    Column else_col(out_type);
    bool has_else = else_expr_ != nullptr;
    if (has_else) {
      PCTAGG_ASSIGN_OR_RETURN(else_col, else_expr_->Evaluate(table));
    }
    Column out(out_type);
    out.Reserve(n);
    // Select straight from the typed branch columns — no per-row boxing.
    // This loop is the inner kernel of the generated N-column CASE pivots.
    auto append_from = [&out, out_type](const Column& src, size_t i) {
      if (src.IsNull(i)) {
        out.AppendNull();
      } else if (out_type == DataType::kString) {
        out.AppendString(src.StringAt(i));
      } else if (out_type == DataType::kInt64) {
        out.AppendInt64(src.Int64At(i));
      } else {
        out.AppendFloat64(src.NumericAt(i));
      }
    };
    for (size_t i = 0; i < n; ++i) {
      bool matched = false;
      for (size_t b = 0; b < conds.size(); ++b) {
        if (!conds[b].IsNull(i) && conds[b].Int64At(i) != 0) {
          append_from(results[b], i);
          matched = true;
          break;
        }
      }
      if (!matched) {
        if (has_else) {
          append_from(else_col, i);
        } else {
          out.AppendNull();
        }
      }
    }
    return out;
  }

  std::string ToString() const override {
    std::string out = "CASE";
    for (const auto& [cond, result] : branches_) {
      out += " WHEN " + cond->ToString() + " THEN " + result->ToString();
    }
    if (else_expr_ != nullptr) out += " ELSE " + else_expr_->ToString();
    out += " END";
    return out;
  }

 private:
  std::vector<std::pair<ExprPtr, ExprPtr>> branches_;
  ExprPtr else_expr_;  // may be null (ELSE NULL)
};

class CoalesceExpr : public Expression {
 public:
  explicit CoalesceExpr(std::vector<ExprPtr> args) : args_(std::move(args)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    if (args_.empty()) {
      return Status::InvalidArgument("COALESCE requires arguments");
    }
    DataType out = DataType::kInt64;
    bool first = true;
    for (const ExprPtr& a : args_) {
      PCTAGG_ASSIGN_OR_RETURN(DataType t, a->ResultType(schema));
      if (first) {
        out = t;
        first = false;
      } else if (t != out) {
        if (t == DataType::kString || out == DataType::kString) {
          return Status::TypeMismatch("COALESCE arguments mix string/numeric");
        }
        out = DataType::kFloat64;
      }
    }
    return out;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    std::vector<Column> cols;
    cols.reserve(args_.size());
    for (const ExprPtr& a : args_) {
      PCTAGG_ASSIGN_OR_RETURN(Column c, a->Evaluate(table));
      cols.push_back(std::move(c));
    }
    Column out(out_type);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < table.num_rows(); ++i) {
      bool done = false;
      for (const Column& c : cols) {
        if (c.IsNull(i)) continue;
        if (out_type == DataType::kString) {
          out.AppendString(c.StringAt(i));
        } else if (out_type == DataType::kInt64) {
          out.AppendInt64(c.Int64At(i));
        } else {
          out.AppendFloat64(c.NumericAt(i));
        }
        done = true;
        break;
      }
      if (!done) out.AppendNull();
    }
    return out;
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(args_.size());
    for (const ExprPtr& a : args_) parts.push_back(a->ToString());
    return "COALESCE(" + Join(parts, ", ") + ")";
  }

 private:
  std::vector<ExprPtr> args_;
};

class AbsExpr : public Expression {
 public:
  explicit AbsExpr(ExprPtr e) : expr_(std::move(e)) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType t, expr_->ResultType(schema));
    if (t == DataType::kString) {
      return Status::TypeMismatch("ABS requires a numeric argument");
    }
    return t;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType out_type, ResultType(table.schema()));
    PCTAGG_ASSIGN_OR_RETURN(Column c, expr_->Evaluate(table));
    Column out(out_type);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) {
        out.AppendNull();
      } else if (out_type == DataType::kInt64) {
        int64_t v = c.Int64At(i);
        out.AppendInt64(v < 0 ? -v : v);
      } else {
        out.AppendFloat64(std::fabs(c.NumericAt(i)));
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "ABS(" + expr_->ToString() + ")";
  }

 private:
  ExprPtr expr_;
};

class RoundExpr : public Expression {
 public:
  RoundExpr(ExprPtr e, int digits) : expr_(std::move(e)), digits_(digits) {}

  Result<DataType> ResultType(const Schema& schema) const override {
    PCTAGG_ASSIGN_OR_RETURN(DataType t, expr_->ResultType(schema));
    if (t == DataType::kString) {
      return Status::TypeMismatch("ROUND requires a numeric argument");
    }
    return DataType::kFloat64;
  }

  Result<Column> Evaluate(const Table& table) const override {
    PCTAGG_RETURN_IF_ERROR(ResultType(table.schema()).status());
    PCTAGG_ASSIGN_OR_RETURN(Column c, expr_->Evaluate(table));
    const double scale = std::pow(10.0, digits_);
    Column out(DataType::kFloat64);
    out.Reserve(table.num_rows());
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.IsNull(i)) {
        out.AppendNull();
      } else {
        out.AppendFloat64(std::round(c.NumericAt(i) * scale) / scale);
      }
    }
    return out;
  }

  std::string ToString() const override {
    return "ROUND(" + expr_->ToString() + ", " + std::to_string(digits_) + ")";
  }

 private:
  ExprPtr expr_;
  int digits_;
};

}  // namespace

Result<std::vector<uint8_t>> Expression::KeepMask(const Table& table) const {
  PCTAGG_ASSIGN_OR_RETURN(Column pred, Evaluate(table));
  if (pred.type() != DataType::kInt64) {
    return Status::TypeMismatch("filter predicate must be boolean");
  }
  const uint8_t* valid = pred.validity().data();
  const int64_t* value = pred.int64_data().data();
  std::vector<uint8_t> mask(pred.size());
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = valid[i] != 0 && value[i] != 0;
  }
  return mask;
}

ExprPtr Lit(Value v) {
  DataType type = DataType::kInt64;
  if (v.is_float64()) type = DataType::kFloat64;
  if (v.is_string()) type = DataType::kString;
  return std::make_shared<LiteralExpr>(std::move(v), type);
}

ExprPtr NullLit(DataType type) {
  return std::make_shared<LiteralExpr>(Value::Null(), type);
}

ExprPtr Col(std::string name) {
  return std::make_shared<ColumnRefExpr>(std::move(name));
}

ExprPtr Add(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(ArithOp::kDiv, std::move(l), std::move(r));
}

ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(CmpOp::kGe, std::move(l), std::move(r));
}

ExprPtr And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(true, std::move(l), std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicalExpr>(false, std::move(l), std::move(r));
}
ExprPtr Not(ExprPtr e) { return std::make_shared<NotExpr>(std::move(e)); }
ExprPtr IsNull(ExprPtr e) { return std::make_shared<IsNullExpr>(std::move(e)); }

ExprPtr AndAll(std::vector<ExprPtr> terms) {
  if (terms.empty()) return Lit(Value::Int64(1));
  ExprPtr out = terms[0];
  for (size_t i = 1; i < terms.size(); ++i) {
    out = And(std::move(out), terms[i]);
  }
  return out;
}

ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr) {
  return std::make_shared<CaseWhenExpr>(std::move(branches),
                                        std::move(else_expr));
}

ExprPtr Coalesce(std::vector<ExprPtr> args) {
  return std::make_shared<CoalesceExpr>(std::move(args));
}

ExprPtr Abs(ExprPtr e) { return std::make_shared<AbsExpr>(std::move(e)); }

ExprPtr Round(ExprPtr e, int digits) {
  return std::make_shared<RoundExpr>(std::move(e), digits);
}

}  // namespace pctagg
