#ifndef PCTAGG_ENGINE_AGGREGATE_H_
#define PCTAGG_ENGINE_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/expression.h"
#include "engine/table.h"

namespace pctagg {

// Standard SQL aggregate functions (the paper's "vertical aggregations").
enum class AggFunc {
  kSum,
  kCount,      // count(expr): non-null inputs
  kCountStar,  // count(*): all rows in the group
  kAvg,
  kMin,
  kMax,
};

const char* AggFuncName(AggFunc func);

// One aggregate output column: `func` applied to `input` (ignored for
// count(*)), emitted as `output_name`. `input` may be any scalar expression —
// in particular the sum(CASE WHEN ... THEN A ELSE null END) terms generated
// by the CASE pivot strategy.
struct AggSpec {
  AggFunc func;
  ExprPtr input;  // nullptr only for kCountStar
  std::string output_name;
};

// Hash-based GROUP BY over `group_by` columns (possibly empty: one global
// group; with zero input rows the global group still yields one row of
// NULL/0 aggregates, matching SQL). NULL semantics follow sum()/count():
// NULL inputs are skipped, an all-NULL group aggregates to NULL (count: 0).
// INT64 sums wrap on overflow (engine/agg_internal.h).
//
// Output schema: the group-by columns (input types preserved) followed by one
// column per AggSpec.
//
// This is the engine's one grouped-aggregation kernel: the fused scans, the
// materialized plans, every rollup, the shard gather and the delta merge all
// run it. Each morsel is pushed through filter mask, keying and accumulation
// in one pass. A non-null `where` is evaluated into a keep mask
// (Expression::KeepMask), so filtered rows are never copied; the result
// equals Filter(input, where) aggregated. Group keys are read straight off
// the column arrays through one of three tiers — a small dictionary's codes
// as dense ids, an inline table for one or two columns, or packed keys.
//
// `dop` sets the degree of parallelism (0 means "inherit CurrentDop()", see
// engine/parallel.h). Morsels come from MorselPlan::Auto; each worker
// accumulates thread-local partials, merged by hash partition. Group rows are
// emitted in first-seen input order at every dop; integer aggregates are
// bit-identical across dop, float sums may differ by reassociation (see
// docs/PARALLELISM.md).
Result<Table> HashAggregate(const Table& input,
                            const std::vector<std::string>& group_by,
                            const std::vector<AggSpec>& aggs, size_t dop = 0,
                            const ExprPtr& where = nullptr);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_AGGREGATE_H_
