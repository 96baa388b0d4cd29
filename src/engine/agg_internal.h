#ifndef PCTAGG_ENGINE_AGG_INTERNAL_H_
#define PCTAGG_ENGINE_AGG_INTERNAL_H_

// Shared internals of the grouped-aggregation kernels. HashAggregate (the
// materialized path) and FusedAggregate (the push-based pipeline) both build
// on these accumulator structs, micro-plans and the emission routine, which
// is what makes the fused path bit-identical to the materialized one by
// construction: the per-row accumulation and the final Value emission are
// the same code.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/aggregate.h"
#include "engine/dictionary.h"

namespace pctagg {
namespace aggdetail {

// Accumulator state for one (group, aggregate) pair. A single struct covers
// all functions; which fields are live depends on the function.
struct AggState {
  double sum = 0.0;
  int64_t isum = 0;
  int64_t count = 0;      // non-null inputs seen
  int64_t row_count = 0;  // all rows (count(*))
  // Running extremes. INT64 inputs keep them as int64 (a double cannot hold
  // every int64 above 2^53, and casting 2^63 back is undefined); which
  // member is live depends on the spec's AccKind, and `saw_value` says
  // whether it holds a value yet.
  union {
    double min = std::numeric_limits<double>::infinity();
    int64_t imin;
  };
  union {
    double max = -std::numeric_limits<double>::infinity();
    int64_t imax;
  };
  // Next to the numeric fields, so a numeric accumulator touches one cache
  // line.
  bool saw_value = false;
  std::string smin;
  std::string smax;
};

inline Result<DataType> AggOutputType(const AggSpec& spec,
                                      const Schema& schema) {
  switch (spec.func) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kFloat64;
    case AggFunc::kSum: {
      PCTAGG_ASSIGN_OR_RETURN(DataType t, spec.input->ResultType(schema));
      if (t == DataType::kString) {
        return Status::TypeMismatch("sum() over string column");
      }
      return t;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      PCTAGG_ASSIGN_OR_RETURN(DataType t, spec.input->ResultType(schema));
      return t;
    }
  }
  return Status::Internal("unknown aggregate function");
}

// A per-spec accumulation micro-plan: the function x input-type dispatch and
// the variant unpacking (Column::NumericAt runs a std::get per call) are
// resolved once per aggregation instead of once per row per spec, and each
// spec then runs its own tight loop over the morsel, touching only the
// fields its emission actually reads.
enum class AccKind : uint8_t {
  kCountStar,  // row_count
  kCount,      // count
  kSumInt,     // isum, saw_value
  kSumFloat,   // sum, saw_value
  kAvg,        // sum, count, saw_value
  kAvgStr,     // count, saw_value (degenerate avg-over-string: sum stays 0)
  kMinInt,     // imin, saw_value
  kMaxInt,     // imax, saw_value
  kMinNum,     // min, saw_value
  kMaxNum,     // max, saw_value
  kMinStr,     // smin, saw_value
  kMaxStr,     // smax, saw_value
};

struct AccPlan {
  AccKind kind = AccKind::kCountStar;
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;      // set iff the input column is INT64
  const double* f64 = nullptr;       // set iff FLOAT64
  const uint32_t* codes = nullptr;   // set iff STRING (dictionary codes)
  const Dictionary* dict = nullptr;  // set iff STRING

  double NumericAt(size_t row) const {
    return i64 != nullptr ? static_cast<double>(i64[row]) : f64[row];
  }
  const std::string& StringAt(size_t row) const {
    return dict->value(codes[row]);
  }
};

inline AccPlan MakeAccPlan(const AggSpec& spec, const Column& input) {
  AccPlan ap;
  if (spec.func == AggFunc::kCountStar) {
    ap.kind = AccKind::kCountStar;
    return ap;
  }
  ap.validity = input.validity().data();
  switch (input.type()) {
    case DataType::kInt64:
      ap.i64 = input.int64_data().data();
      break;
    case DataType::kFloat64:
      ap.f64 = input.float64_data().data();
      break;
    case DataType::kString:
      ap.codes = input.codes().data();
      ap.dict = input.dict().get();
      break;
  }
  const bool is_string = input.type() == DataType::kString;
  const bool is_int = input.type() == DataType::kInt64;
  switch (spec.func) {
    case AggFunc::kCountStar:
      break;  // handled above
    case AggFunc::kCount:
      ap.kind = AccKind::kCount;
      break;
    case AggFunc::kSum:
      // sum() over strings is rejected during validation.
      ap.kind = input.type() == DataType::kInt64 ? AccKind::kSumInt
                                                 : AccKind::kSumFloat;
      break;
    case AggFunc::kAvg:
      ap.kind = is_string ? AccKind::kAvgStr : AccKind::kAvg;
      break;
    case AggFunc::kMin:
      ap.kind = is_string ? AccKind::kMinStr
                : is_int  ? AccKind::kMinInt
                          : AccKind::kMinNum;
      break;
    case AggFunc::kMax:
      ap.kind = is_string ? AccKind::kMaxStr
                : is_int  ? AccKind::kMaxInt
                          : AccKind::kMaxNum;
      break;
  }
  return ap;
}

// Folds one morsel into one spec's per-group accumulator column. `gid` holds
// the local group id of row `begin + i` at position i.
//
// NULLs are the exception in real measure columns, so each morsel first asks
// one memchr whether this span has any at all; the common all-valid span then
// runs a branch-free inner loop (load, accumulate, store — no per-row
// validity test in the dependency chain), and only spans that actually
// contain NULLs pay the per-row branch.
inline void AccumulateMorsel(const AccPlan& ap, const std::vector<uint32_t>& gid,
                             size_t begin, size_t end,
                             std::vector<AggState>& col) {
  const bool no_nulls =
      ap.validity == nullptr ||
      std::memchr(ap.validity + begin, 0, end - begin) == nullptr;
  switch (ap.kind) {
    case AccKind::kCountStar:
      for (size_t row = begin; row < end; ++row) {
        col[gid[row - begin]].row_count++;
      }
      break;
    case AccKind::kCount:
      if (no_nulls) {
        for (size_t row = begin; row < end; ++row) {
          col[gid[row - begin]].count++;
        }
        break;
      }
      for (size_t row = begin; row < end; ++row) {
        if (ap.validity[row]) col[gid[row - begin]].count++;
      }
      break;
    case AccKind::kSumInt:
      if (no_nulls) {
        for (size_t row = begin; row < end; ++row) {
          AggState& st = col[gid[row - begin]];
          st.isum += ap.i64[row];
          st.saw_value = true;
        }
        break;
      }
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        st.isum += ap.i64[row];
        st.saw_value = true;
      }
      break;
    case AccKind::kSumFloat:
      if (no_nulls && ap.f64 != nullptr) {
        for (size_t row = begin; row < end; ++row) {
          AggState& st = col[gid[row - begin]];
          st.sum += ap.f64[row];
          st.saw_value = true;
        }
        break;
      }
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        st.sum += ap.NumericAt(row);
        st.saw_value = true;
      }
      break;
    case AccKind::kAvg:
      if (no_nulls && ap.f64 != nullptr) {
        for (size_t row = begin; row < end; ++row) {
          AggState& st = col[gid[row - begin]];
          st.sum += ap.f64[row];
          st.count++;
          st.saw_value = true;
        }
        break;
      }
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        st.sum += ap.NumericAt(row);
        st.count++;
        st.saw_value = true;
      }
      break;
    case AccKind::kAvgStr:
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        st.count++;
        st.saw_value = true;
      }
      break;
    case AccKind::kMinInt:
      for (size_t row = begin; row < end; ++row) {
        if (!no_nulls && !ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        const int64_t v = ap.i64[row];
        st.imin = !st.saw_value || v < st.imin ? v : st.imin;
        st.saw_value = true;
      }
      break;
    case AccKind::kMaxInt:
      for (size_t row = begin; row < end; ++row) {
        if (!no_nulls && !ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        const int64_t v = ap.i64[row];
        st.imax = !st.saw_value || v > st.imax ? v : st.imax;
        st.saw_value = true;
      }
      break;
    case AccKind::kMinNum:
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        double v = ap.NumericAt(row);
        if (v < st.min) st.min = v;
        st.saw_value = true;
      }
      break;
    case AccKind::kMaxNum:
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        double v = ap.NumericAt(row);
        if (v > st.max) st.max = v;
        st.saw_value = true;
      }
      break;
    case AccKind::kMinStr:
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        const std::string& s = ap.StringAt(row);
        if (!st.saw_value || s < st.smin) st.smin = s;
        st.saw_value = true;
      }
      break;
    case AccKind::kMaxStr:
      for (size_t row = begin; row < end; ++row) {
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[row - begin]];
        const std::string& s = ap.StringAt(row);
        if (!st.saw_value || s > st.smax) st.smax = s;
        st.saw_value = true;
      }
      break;
  }
}

// Selection variant used by the fused path's filtered morsels: accumulates
// only the rows listed in `rows` (ascending input order, so per-group value
// sequences match what Filter-then-aggregate would have produced), with
// gid[i] the local group id of rows[i].
inline void AccumulateRows(const AccPlan& ap, const uint32_t* gid,
                           const uint32_t* rows, size_t count,
                           std::vector<AggState>& col) {
  switch (ap.kind) {
    case AccKind::kCountStar:
      for (size_t i = 0; i < count; ++i) col[gid[i]].row_count++;
      break;
    case AccKind::kCount:
      for (size_t i = 0; i < count; ++i) {
        if (ap.validity[rows[i]]) col[gid[i]].count++;
      }
      break;
    case AccKind::kSumInt:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        st.isum += ap.i64[row];
        st.saw_value = true;
      }
      break;
    case AccKind::kSumFloat:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        st.sum += ap.NumericAt(row);
        st.saw_value = true;
      }
      break;
    case AccKind::kAvg:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        st.sum += ap.NumericAt(row);
        st.count++;
        st.saw_value = true;
      }
      break;
    case AccKind::kAvgStr:
      for (size_t i = 0; i < count; ++i) {
        if (!ap.validity[rows[i]]) continue;
        AggState& st = col[gid[i]];
        st.count++;
        st.saw_value = true;
      }
      break;
    case AccKind::kMinInt:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        const int64_t v = ap.i64[row];
        if (!st.saw_value || v < st.imin) st.imin = v;
        st.saw_value = true;
      }
      break;
    case AccKind::kMaxInt:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        const int64_t v = ap.i64[row];
        if (!st.saw_value || v > st.imax) st.imax = v;
        st.saw_value = true;
      }
      break;
    case AccKind::kMinNum:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        double v = ap.NumericAt(row);
        if (v < st.min) st.min = v;
        st.saw_value = true;
      }
      break;
    case AccKind::kMaxNum:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        double v = ap.NumericAt(row);
        if (v > st.max) st.max = v;
        st.saw_value = true;
      }
      break;
    case AccKind::kMinStr:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        const std::string& s = ap.StringAt(row);
        if (!st.saw_value || s < st.smin) st.smin = s;
        st.saw_value = true;
      }
      break;
    case AccKind::kMaxStr:
      for (size_t i = 0; i < count; ++i) {
        const uint32_t row = rows[i];
        if (!ap.validity[row]) continue;
        AggState& st = col[gid[i]];
        const std::string& s = ap.StringAt(row);
        if (!st.saw_value || s > st.smax) st.smax = s;
        st.saw_value = true;
      }
      break;
  }
}

// Unrolled accumulation over small group domains for the integer-associative
// kinds (count(*), count, sum of INT64 — the percentage pipelines' hot
// aggregates over 4-byte dictionary codes). Four independent lane arrays
// break the load-add-store dependency chain a per-group scalar accumulator
// serializes on when consecutive rows hit the same group (the common case
// for low-cardinality dimensions); the lane fold afterwards is integer
// addition, so the result is bit-identical to the scalar loop. Returns false
// when the kind is not lane-foldable — the caller then runs the scalar
// kernel. `scratch` is caller-owned morsel scratch, resized here.
inline bool AccumulateMorselUnrolled(const AccPlan& ap,
                                     const std::vector<uint32_t>& gid,
                                     size_t begin, size_t end,
                                     size_t num_groups,
                                     std::vector<AggState>& col,
                                     std::vector<int64_t>& scratch) {
  if (ap.kind != AccKind::kCountStar && ap.kind != AccKind::kCount &&
      ap.kind != AccKind::kSumInt) {
    return false;
  }
  const size_t g4 = num_groups * 4;
  scratch.assign(ap.kind == AccKind::kSumInt ? g4 * 2 : g4, 0);
  int64_t* lanes = scratch.data();          // [lane][group] sums or counts
  int64_t* cnt = scratch.data() + g4;       // kSumInt: valid-row counts
  const uint32_t* g = gid.data();
  const bool no_nulls =
      ap.validity == nullptr ||
      std::memchr(ap.validity + begin, 0, end - begin) == nullptr;
  const size_t count = end - begin;
  size_t i = 0;
  switch (ap.kind) {
    case AccKind::kCountStar:
      for (; i + 4 <= count; i += 4) {
        lanes[g[i]]++;
        lanes[num_groups + g[i + 1]]++;
        lanes[2 * num_groups + g[i + 2]]++;
        lanes[3 * num_groups + g[i + 3]]++;
      }
      for (; i < count; ++i) lanes[g[i]]++;
      for (size_t grp = 0; grp < num_groups; ++grp) {
        const int64_t c = lanes[grp] + lanes[num_groups + grp] +
                          lanes[2 * num_groups + grp] +
                          lanes[3 * num_groups + grp];
        if (c != 0) col[grp].row_count += c;
      }
      return true;
    case AccKind::kCount:
      if (no_nulls) {
        for (; i + 4 <= count; i += 4) {
          lanes[g[i]]++;
          lanes[num_groups + g[i + 1]]++;
          lanes[2 * num_groups + g[i + 2]]++;
          lanes[3 * num_groups + g[i + 3]]++;
        }
        for (; i < count; ++i) lanes[g[i]]++;
      } else {
        const uint8_t* v = ap.validity + begin;
        for (; i < count; ++i) {
          if (v[i]) lanes[(i & 3) * num_groups + g[i]]++;
        }
      }
      for (size_t grp = 0; grp < num_groups; ++grp) {
        const int64_t c = lanes[grp] + lanes[num_groups + grp] +
                          lanes[2 * num_groups + grp] +
                          lanes[3 * num_groups + grp];
        if (c != 0) col[grp].count += c;
      }
      return true;
    case AccKind::kSumInt: {
      const int64_t* val = ap.i64 + begin;
      if (no_nulls) {
        for (; i + 4 <= count; i += 4) {
          lanes[g[i]] += val[i];
          cnt[g[i]]++;
          lanes[num_groups + g[i + 1]] += val[i + 1];
          cnt[num_groups + g[i + 1]]++;
          lanes[2 * num_groups + g[i + 2]] += val[i + 2];
          cnt[2 * num_groups + g[i + 2]]++;
          lanes[3 * num_groups + g[i + 3]] += val[i + 3];
          cnt[3 * num_groups + g[i + 3]]++;
        }
        for (; i < count; ++i) {
          lanes[g[i]] += val[i];
          cnt[g[i]]++;
        }
      } else {
        const uint8_t* v = ap.validity + begin;
        for (; i < count; ++i) {
          if (!v[i]) continue;
          const size_t slot = (i & 3) * num_groups + g[i];
          lanes[slot] += val[i];
          cnt[slot]++;
        }
      }
      for (size_t grp = 0; grp < num_groups; ++grp) {
        const int64_t c = cnt[grp] + cnt[num_groups + grp] +
                          cnt[2 * num_groups + grp] +
                          cnt[3 * num_groups + grp];
        if (c == 0) continue;
        col[grp].isum += lanes[grp] + lanes[num_groups + grp] +
                         lanes[2 * num_groups + grp] +
                         lanes[3 * num_groups + grp];
        col[grp].saw_value = true;
      }
      return true;
    }
    default:
      return false;
  }
}

// Folds one accumulator of a spec accumulated as `kind` into another
// (associative, commutative up to the first-seen tie-breaks handled by the
// callers' row ordering).
inline void MergeState(AggState& d, const AggState& s, AccKind kind) {
  d.row_count += s.row_count;
  d.count += s.count;
  d.sum += s.sum;
  d.isum += s.isum;
  if (kind == AccKind::kMinInt) {
    if (s.saw_value && (!d.saw_value || s.imin < d.imin)) d.imin = s.imin;
  } else if (kind == AccKind::kMaxInt) {
    if (s.saw_value && (!d.saw_value || s.imax > d.imax)) d.imax = s.imax;
  } else {
    if (s.min < d.min) d.min = s.min;
    if (s.max > d.max) d.max = s.max;
  }
  if (s.saw_value) {
    if (!d.saw_value || s.smin < d.smin) d.smin = s.smin;
    if (!d.saw_value || s.smax > d.smax) d.smax = s.smax;
    d.saw_value = true;
  }
}

// One group's accumulators gathered back into [agg] order for emission.
inline std::vector<AggState> GatherStates(
    const std::vector<std::vector<AggState>>& spec_states, size_t id) {
  std::vector<AggState> gs;
  gs.reserve(spec_states.size());
  for (const std::vector<AggState>& sc : spec_states) gs.push_back(sc[id]);
  return gs;
}

// Group-by resolution + aggregate validation + vectorized input evaluation,
// shared verbatim between the materialized and fused kernels. `acc_plans`
// holds raw pointers into `agg_inputs`; both stay valid across moves of the
// whole struct (vector storage is stable under move).
struct AggBindings {
  std::vector<size_t> group_idx;
  std::vector<DataType> out_types;
  std::vector<Column> agg_inputs;
  std::vector<AccPlan> acc_plans;
};

inline Result<AggBindings> BindAggs(const Table& input,
                                    const std::vector<std::string>& group_by,
                                    const std::vector<AggSpec>& aggs) {
  AggBindings b;
  b.group_idx.reserve(group_by.size());
  for (const std::string& name : group_by) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    b.group_idx.push_back(idx);
  }
  b.out_types.reserve(aggs.size());
  b.agg_inputs.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    if (spec.func != AggFunc::kCountStar && spec.input == nullptr) {
      return Status::InvalidArgument("aggregate requires an input expression");
    }
    if (spec.func == AggFunc::kCountStar) {
      b.out_types.push_back(DataType::kInt64);
      b.agg_inputs.emplace_back(DataType::kInt64);  // placeholder, unused
      continue;
    }
    PCTAGG_ASSIGN_OR_RETURN(DataType t, AggOutputType(spec, input.schema()));
    b.out_types.push_back(t);
    PCTAGG_ASSIGN_OR_RETURN(Column c, spec.input->Evaluate(input));
    b.agg_inputs.push_back(std::move(c));
  }
  b.acc_plans.reserve(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    b.acc_plans.push_back(MakeAccPlan(aggs[a], b.agg_inputs[a]));
  }
  return b;
}

// Builds the result table from merged per-group states in emission order.
// `representative_row[g]` is the input row the group columns are copied
// from. A global aggregation over zero rows still produces one (empty)
// group, appended here.
inline Result<Table> EmitAggOutput(const Table& input,
                                   const std::vector<size_t>& group_idx,
                                   const std::vector<AggSpec>& aggs,
                                   const std::vector<DataType>& out_types,
                                   std::vector<std::vector<AggState>>& states,
                                   std::vector<size_t>& representative_row) {
  if (group_idx.empty() && states.empty()) {
    states.emplace_back(aggs.size());
    representative_row.push_back(0);  // unused: no group columns to copy
  }

  Schema out_schema;
  for (size_t gi : group_idx) {
    out_schema.AddColumn(input.schema().column(gi));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    out_schema.AddColumn({aggs[a].output_name, out_types[a]});
  }
  Table out(out_schema);
  out.Reserve(states.size());

  for (size_t g = 0; g < states.size(); ++g) {
    std::vector<Value> row;
    row.reserve(group_idx.size() + aggs.size());
    for (size_t gi : group_idx) {
      row.push_back(input.column(gi).GetValue(representative_row[g]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      const AggState& st = states[g][a];
      const AggSpec& spec = aggs[a];
      switch (spec.func) {
        case AggFunc::kCountStar:
          row.push_back(Value::Int64(st.row_count));
          break;
        case AggFunc::kCount:
          row.push_back(Value::Int64(st.count));
          break;
        case AggFunc::kSum:
          if (!st.saw_value) {
            row.push_back(Value::Null());
          } else if (out_types[a] == DataType::kInt64) {
            row.push_back(Value::Int64(st.isum));
          } else {
            row.push_back(Value::Float64(st.sum));
          }
          break;
        case AggFunc::kAvg:
          row.push_back(
              st.saw_value
                  ? Value::Float64(st.sum / static_cast<double>(st.count))
                  : Value::Null());
          break;
        case AggFunc::kMin:
          if (!st.saw_value) {
            row.push_back(Value::Null());
          } else if (out_types[a] == DataType::kString) {
            row.push_back(Value::String(st.smin));
          } else if (out_types[a] == DataType::kInt64) {
            row.push_back(Value::Int64(st.imin));
          } else {
            row.push_back(Value::Float64(st.min));
          }
          break;
        case AggFunc::kMax:
          if (!st.saw_value) {
            row.push_back(Value::Null());
          } else if (out_types[a] == DataType::kString) {
            row.push_back(Value::String(st.smax));
          } else if (out_types[a] == DataType::kInt64) {
            row.push_back(Value::Int64(st.imax));
          } else {
            row.push_back(Value::Float64(st.max));
          }
          break;
      }
    }
    PCTAGG_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace aggdetail
}  // namespace pctagg

#endif  // PCTAGG_ENGINE_AGG_INTERNAL_H_
