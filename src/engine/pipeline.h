#ifndef PCTAGG_ENGINE_PIPELINE_H_
#define PCTAGG_ENGINE_PIPELINE_H_

#include "common/result.h"
#include "engine/column.h"
#include "engine/value.h"

namespace pctagg {

// The percentage divides of the partial path's assembly step (Vpct's
// Fk / Fj, and a grand total), vectorized.

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
