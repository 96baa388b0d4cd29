#ifndef PCTAGG_ENGINE_PIPELINE_H_
#define PCTAGG_ENGINE_PIPELINE_H_

#include <vector>

#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/table.h"

namespace pctagg {

// Push-based fused operators for the percentage pipelines. Where the
// materialized plans run Filter -> HashAggregate as separate statements with
// an intermediate table, FusedAggregate pushes each morsel through
// filter-mask, keying and accumulation in one pass, so filtered rows are
// never copied and the group key is built straight from the column arrays.
// The mask is the WHERE's Expression::KeepMask.
//
// Results are bit-identical to Filter(input, where) followed by
// HashAggregate(group_by, aggs) at the same dop: the accumulation and
// emission code is shared (engine/agg_internal.h), rows are folded in the
// same per-worker order, and the WHERE mask preserves input row order.
//
// Morsels come from MorselPlan::Auto: workers are clamped to the CPUs this
// process can actually use and morsels sized to ~4 per worker, which is the
// fix for the committed dop=4-slower-than-dop=1 parallel-scaling row.
Result<Table> FusedAggregate(const Table& input, const ExprPtr& where,
                             const std::vector<std::string>& group_by,
                             const std::vector<AggSpec>& aggs, size_t dop = 0);

// Vectorized percentage divide over two numeric columns: FLOAT64 output,
// NULL where either operand is NULL or the divisor is zero. Bit-identical to
// evaluating Div(Col(num), Col(den)) — IEEE double division is deterministic
// and the AVX2 lanes perform exactly the scalar operation (runtime-selected,
// PCTAGG_DISABLE_SIMD forces the scalar loop).
Result<Column> PercentDivideColumns(const Column& num, const Column& den);

// Scalar-divisor variant for grand-total terms: NULL or zero total yields an
// all-NULL column, matching Div(Col(num), Lit(total)).
Result<Column> PercentDivideScalar(const Column& num, const Value& total);

}  // namespace pctagg

#endif  // PCTAGG_ENGINE_PIPELINE_H_
