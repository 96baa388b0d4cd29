#ifndef PCTAGG_SQL_ANALYZER_H_
#define PCTAGG_SQL_ANALYZER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/data_type.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace pctagg {

// A SELECT term after binding and rule checking. Column lists are normalized
// to the schema's spelling; every term has a definite output name.
struct AnalyzedTerm {
  TermFunc func = TermFunc::kScalar;
  ExprPtr argument;  // null only for count(*)
  bool distinct = false;
  bool has_by = false;
  std::vector<std::string> by_columns;
  bool has_default = false;
  double default_value = 0.0;
  bool has_over = false;
  std::vector<std::string> partition_by;
  std::string output_name;
  // For kVpct: the totals grouping D1..Dj = GROUP BY minus BY, in GROUP BY
  // order (empty means totals over all rows).
  std::vector<std::string> totals_by;
  // For kScalar under GROUP BY and for kGrouping: the referenced grouping
  // column.
  std::string scalar_column;
};

// Query shape, used by the planner dispatch.
enum class QueryClass {
  kProjection,  // no aggregates, no GROUP BY
  kVertical,    // standard aggregates (with optional GROUP BY)
  kVpct,        // >=1 Vpct term (plus other vertical aggregates)
  kHorizontal,  // >=1 Hpct or Hagg (BY) term (plus vertical aggregates)
  kWindow,      // >=1 OVER (...) term
};

const char* QueryClassName(QueryClass c);

// The analyzed form of one SELECT statement against a known schema.
struct AnalyzedQuery {
  std::string table_name;
  Schema schema;           // schema of the FROM table
  ExprPtr where;           // may be null
  bool has_group_by = false;
  std::vector<std::string> group_by;  // normalized names
  // Grouping-set lattice (GROUP BY CUBE/ROLLUP/GROUPING SETS). When true,
  // `group_by` holds the union of all levels in first-appearance order and
  // `grouping_sets` the expanded levels, each normalized to union order and
  // deduplicated, in the order the statement's output emits them (CUBE and
  // ROLLUP expand finest-to-coarsest; explicit GROUPING SETS keep declared
  // order). All per-term rules (Vpct BY subset, Hpct disjointness, scalar
  // membership) are checked against the union.
  bool has_grouping_sets = false;
  std::vector<std::vector<std::string>> grouping_sets;
  std::vector<AnalyzedTerm> terms;
  // HAVING predicate over the result columns; may be null.
  ExprPtr having;
  // ORDER BY entries, validated against the result schema at sort time.
  std::vector<OrderItem> order_by;
  bool has_limit = false;
  size_t limit = 0;
  QueryClass query_class = QueryClass::kProjection;
};

// Binds `stmt` against `schema` and enforces the paper's usage rules:
//
// Vpct (Section 3.1): (1) GROUP BY is required. (2) BY is optional but its
// columns must come from the GROUP BY list (same columns everywhere => each
// row is 100%; absent BY => totals over all rows). (3)+(4) Vpct may be
// combined with other vertical aggregates on the same GROUP BY, and multiple
// Vpct terms may use different BY lists.
//
// Hpct (Section 3.2) and horizontal aggregations (DMKD paper, Section 3.1):
// (1) GROUP BY is optional. (2) BY is required, non-empty and disjoint from
// GROUP BY. (3) other vertical aggregates may appear, grouped by D1..Dj.
// (4) the argument is required. (5) multiple horizontal terms may use
// different BY lists, each disjoint from GROUP BY.
//
// Additional checks: scalar terms must be GROUP BY columns; DISTINCT is only
// accepted on count(); DEFAULT requires a BY clause; mixing Vpct and
// horizontal terms in one statement is rejected (the paper's stated open
// problem); window terms cannot carry BY/DEFAULT and preclude GROUP BY.
Result<AnalyzedQuery> Analyze(const SelectStatement& stmt, const Schema& schema);

// Binds an INSERT against the target table's schema and materializes the
// batch as a delta table with exactly that schema. Named column lists are
// resolved case-insensitively (no duplicates); columns the statement omits
// are filled with NULL — the paper's missing-rows rules treat an absent
// dimension value as a NULL group that percentage queries keep or pad
// explicitly, so partial inserts stay queryable. Integer literals widen to
// FLOAT64 columns; any other type mismatch is an error.
Result<Table> BuildInsertDelta(const InsertStatement& stmt,
                               const Schema& schema);

}  // namespace pctagg

#endif  // PCTAGG_SQL_ANALYZER_H_
