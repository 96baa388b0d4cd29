#ifndef PCTAGG_ENGINE_EXPRESSION_H_
#define PCTAGG_ENGINE_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/column.h"
#include "engine/table.h"
#include "engine/value.h"

namespace pctagg {

class Expression;
using ExprPtr = std::shared_ptr<const Expression>;

// Scalar expression tree evaluated column-at-a-time over a Table. Boolean
// results are INT64 columns holding 0/1 with SQL three-valued logic (UNKNOWN
// is a NULL slot). This is the machinery behind the generated plans' CASE
// statements, filters, and percentage divisions.
class Expression {
 public:
  virtual ~Expression() = default;

  // The output type of this expression against `schema`, or an error if the
  // expression does not bind/typecheck.
  virtual Result<DataType> ResultType(const Schema& schema) const = 0;

  // Evaluates over every row of `table`, producing a column of
  // table.num_rows() entries.
  virtual Result<Column> Evaluate(const Table& table) const = 0;

  // The WHERE/HAVING keep mask: table.num_rows() bytes, 1 where this
  // predicate is TRUE and 0 where it is FALSE or UNKNOWN. Always equal to
  // Evaluate() followed by `valid && value != 0`, which is what the default
  // does; a comparison of an INT64 column with an INT64 constant overrides
  // it with a typed loop over the column array.
  virtual Result<std::vector<uint8_t>> KeepMask(const Table& table) const;

  // SQL-ish rendering, used when plans are printed as generated SQL.
  virtual std::string ToString() const = 0;
};

// -- Node constructors (the public builder API) ------------------------------

// A constant. Type derives from the value; NULL literals need a declared type.
ExprPtr Lit(Value v);
ExprPtr NullLit(DataType type);

// A column reference by (case-insensitive) name.
ExprPtr Col(std::string name);

// Arithmetic; division by zero yields NULL (matching the paper's Vpct()
// semantics — the generated CASE guard makes it explicit at the SQL level).
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);

// Comparisons (=, <>, <, <=, >, >=) with SQL NULL semantics.
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);

// Three-valued logic connectives.
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr IsNull(ExprPtr e);

// Conjunction of all `terms` (empty -> constant true).
ExprPtr AndAll(std::vector<ExprPtr> terms);

// CASE WHEN c1 THEN r1 ... ELSE e END; a null `else_expr` means ELSE NULL.
ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr);

// COALESCE(a, b, ...): the first non-NULL argument (NULL if all are).
// Arguments must share a type family (all numeric or all string).
ExprPtr Coalesce(std::vector<ExprPtr> args);

// ABS(x) for numeric x (type-preserving).
ExprPtr Abs(ExprPtr e);

// ROUND(x, digits): x rounded to `digits` decimal places (FLOAT64).
ExprPtr Round(ExprPtr e, int digits);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_EXPRESSION_H_
