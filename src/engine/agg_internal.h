#ifndef PCTAGG_ENGINE_AGG_INTERNAL_H_
#define PCTAGG_ENGINE_AGG_INTERNAL_H_

// The one accumulator. Every distributive aggregate in the engine — the
// grouped aggregation kernel (HashAggregate, which also runs every rollup,
// shard gather and delta merge), the pivot's cells and group totals, and the
// window's partitions — is an AggState started default, folded row by row
// with Fold<kind>, merged with MergeState and finalized with StateValue:
// Gray et al.'s Init / Iter / Iter_super / Final handle, written once.
//
// INT64 sums add as unsigned integers, so an overflowing sum wraps as two's
// complement instead of being undefined. Wrapping addition is associative and
// commutative, so every fold tree — any dop, shard count, rollup source or
// delta merge — gives the same INT64 answer, and that answer is exact
// whenever the true sum fits in an int64.

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/aggregate.h"
#include "engine/dictionary.h"

namespace pctagg {
namespace aggdetail {

// Accumulator state for one (group, aggregate) pair. Which fields are live
// depends on the spec's AccKind (below); fields no kind reads together share
// storage.
struct AggState {
  int64_t row_count = 0;  // rows folded: count(*), and the pivot's presence
  int64_t count = 0;      // non-null inputs seen
  union {
    double sum = 0.0;  // FLOAT64 sums and avg (0.0 has all-zero bits)
    int64_t isum;      // INT64 sums, wrapping
  };
  // Running extremes. INT64 inputs keep them as int64 (a double cannot hold
  // every int64 above 2^53), strings as the dictionary code compared through
  // the spec's dictionary; `saw_value` says whether they hold a value yet.
  union {
    double min = std::numeric_limits<double>::infinity();
    int64_t imin;
    uint32_t smin;
  };
  union {
    double max = -std::numeric_limits<double>::infinity();
    int64_t imax;
    uint32_t smax;
  };
  bool saw_value = false;
};
// The pivot keeps one state per (group, combination) cell: a wider state
// multiplies its cell matrix, and per-state heap data would make it slow to
// copy and merge.
static_assert(sizeof(AggState) <= 56, "AggState must stay at most 56 bytes");
static_assert(std::is_trivially_copyable_v<AggState>,
              "AggState must stay trivially copyable");

// Two's-complement addition without a signed overflow's undefined behaviour.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
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
  const uint8_t* validity = nullptr;  // null for count(*): every row counts
  const int64_t* i64 = nullptr;       // set iff the input column is INT64
  const double* f64 = nullptr;        // set iff FLOAT64
  const uint32_t* codes = nullptr;    // set iff STRING (dictionary codes)
  const Dictionary* dict = nullptr;   // set iff STRING

  double NumericAt(size_t row) const {
    return i64 != nullptr ? static_cast<double>(i64[row]) : f64[row];
  }
  bool CodeLess(uint32_t a, uint32_t b) const {
    return dict->value(a) < dict->value(b);
  }
};

// `input` is the evaluated argument; count(*) reads none.
inline AccPlan MakeAccPlan(AggFunc func, const Column& input) {
  AccPlan ap;
  if (func == AggFunc::kCountStar) return ap;
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
  switch (func) {
    case AggFunc::kCountStar:
      break;  // handled above
    case AggFunc::kCount:
      ap.kind = AccKind::kCount;
      break;
    case AggFunc::kSum:
      // sum() over strings is rejected before planning.
      ap.kind = is_int ? AccKind::kSumInt : AccKind::kSumFloat;
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

// The per-kind step: folds input row `row` of `ap` into `st`. Callers skip
// NULL rows (count(*) has no validity, so it sees every row).
template <AccKind K>
inline void Fold(const AccPlan& ap, AggState& st, size_t row) {
  if constexpr (K == AccKind::kCountStar) {
    st.row_count++;
    return;
  } else if constexpr (K == AccKind::kCount) {
    st.count++;
    return;
  } else if constexpr (K == AccKind::kSumInt) {
    st.isum = WrapAdd(st.isum, ap.i64[row]);
  } else if constexpr (K == AccKind::kSumFloat) {
    st.sum += ap.f64[row];
  } else if constexpr (K == AccKind::kAvg) {
    st.sum += ap.NumericAt(row);
    st.count++;
  } else if constexpr (K == AccKind::kAvgStr) {
    st.count++;
  } else if constexpr (K == AccKind::kMinInt) {
    const int64_t v = ap.i64[row];
    st.imin = !st.saw_value || v < st.imin ? v : st.imin;
  } else if constexpr (K == AccKind::kMaxInt) {
    const int64_t v = ap.i64[row];
    st.imax = !st.saw_value || v > st.imax ? v : st.imax;
  } else if constexpr (K == AccKind::kMinNum) {
    if (ap.f64[row] < st.min) st.min = ap.f64[row];
  } else if constexpr (K == AccKind::kMaxNum) {
    if (ap.f64[row] > st.max) st.max = ap.f64[row];
  } else if constexpr (K == AccKind::kMinStr) {
    const uint32_t code = ap.codes[row];
    if (!st.saw_value || ap.CodeLess(code, st.smin)) st.smin = code;
  } else {
    static_assert(K == AccKind::kMaxStr);
    const uint32_t code = ap.codes[row];
    if (!st.saw_value || ap.CodeLess(st.smax, code)) st.smax = code;
  }
  st.saw_value = true;
}

template <AccKind K>
using KindTag = std::integral_constant<AccKind, K>;

// Calls `fn(KindTag<kind>())`, so a loop written once in `fn` is compiled
// per kind with the dispatch hoisted out of it.
template <typename Fn>
inline void WithKind(AccKind kind, Fn&& fn) {
  switch (kind) {
    case AccKind::kCountStar:
      return fn(KindTag<AccKind::kCountStar>());
    case AccKind::kCount:
      return fn(KindTag<AccKind::kCount>());
    case AccKind::kSumInt:
      return fn(KindTag<AccKind::kSumInt>());
    case AccKind::kSumFloat:
      return fn(KindTag<AccKind::kSumFloat>());
    case AccKind::kAvg:
      return fn(KindTag<AccKind::kAvg>());
    case AccKind::kAvgStr:
      return fn(KindTag<AccKind::kAvgStr>());
    case AccKind::kMinInt:
      return fn(KindTag<AccKind::kMinInt>());
    case AccKind::kMaxInt:
      return fn(KindTag<AccKind::kMaxInt>());
    case AccKind::kMinNum:
      return fn(KindTag<AccKind::kMinNum>());
    case AccKind::kMaxNum:
      return fn(KindTag<AccKind::kMaxNum>());
    case AccKind::kMinStr:
      return fn(KindTag<AccKind::kMinStr>());
    case AccKind::kMaxStr:
      return fn(KindTag<AccKind::kMaxStr>());
  }
}

// True when no row in [lo, hi) is NULL for `ap`.
inline bool NoNulls(const AccPlan& ap, size_t lo, size_t hi) {
  return ap.validity == nullptr ||
         std::memchr(ap.validity + lo, 0, hi - lo) == nullptr;
}

// Folds `count` input positions into the per-group states `col`: position i
// is input row `rows[i]` when a selection list is given (a WHERE mask's kept
// rows, ascending, so each group folds its values in input order), else row
// `begin + i`; it belongs to group gid[i].
//
// NULLs are the exception in real measure columns, so one memchr first asks
// whether the rows covered hold any at all; the common all-valid case then
// runs a branch-free inner loop (load, accumulate, store — no per-row
// validity test in the dependency chain), and only spans that actually
// contain NULLs pay the per-row branch.
inline void Accumulate(const AccPlan& ap, const uint32_t* gid,
                       const uint32_t* rows, size_t begin, size_t count,
                       AggState* col) {
  if (count == 0) return;
  WithKind(ap.kind, [&](auto k) {
    constexpr AccKind K = decltype(k)::value;
    if (rows == nullptr) {
      if (NoNulls(ap, begin, begin + count)) {
        for (size_t i = 0; i < count; ++i) Fold<K>(ap, col[gid[i]], begin + i);
        return;
      }
      for (size_t i = 0; i < count; ++i) {
        if (ap.validity[begin + i]) Fold<K>(ap, col[gid[i]], begin + i);
      }
      return;
    }
    if (NoNulls(ap, rows[0], rows[count - 1] + 1)) {
      for (size_t i = 0; i < count; ++i) Fold<K>(ap, col[gid[i]], rows[i]);
      return;
    }
    for (size_t i = 0; i < count; ++i) {
      if (ap.validity[rows[i]]) Fold<K>(ap, col[gid[i]], rows[i]);
    }
  });
}

// Unrolled accumulation over small group domains for the integer-associative
// kinds (count(*), count, sum of INT64 — the percentage pipelines' hot
// aggregates over 4-byte dictionary codes). Four independent lane arrays
// break the load-add-store dependency chain a per-group scalar accumulator
// serializes on when consecutive rows hit the same group (the common case
// for low-cardinality dimensions); lanes add as unsigned integers, so the
// lane fold afterwards is bit-identical to the scalar loop's wrapping sum.
// Returns false when the kind is not lane-foldable — the caller then runs
// Accumulate. `scratch` is caller-owned morsel scratch, resized here.
inline bool AccumulateMorselUnrolled(const AccPlan& ap, const uint32_t* g,
                                     size_t begin, size_t end,
                                     size_t num_groups, AggState* col,
                                     std::vector<uint64_t>& scratch) {
  if (ap.kind != AccKind::kCountStar && ap.kind != AccKind::kCount &&
      ap.kind != AccKind::kSumInt) {
    return false;
  }
  const size_t g4 = num_groups * 4;
  scratch.assign(ap.kind == AccKind::kSumInt ? g4 * 2 : g4, 0);
  uint64_t* lanes = scratch.data();     // [lane][group] sums or counts
  uint64_t* cnt = scratch.data() + g4;  // kSumInt: valid-row counts
  const bool no_nulls = NoNulls(ap, begin, end);
  const size_t count = end - begin;
  // The four lanes of group `grp`, folded.
  auto lane_sum = [&](const uint64_t* l, size_t grp) {
    return static_cast<int64_t>(l[grp] + l[num_groups + grp] +
                                l[2 * num_groups + grp] +
                                l[3 * num_groups + grp]);
  };
  size_t i = 0;
  if (ap.kind == AccKind::kSumInt) {
    const int64_t* val = ap.i64 + begin;
    if (no_nulls) {
      for (; i + 4 <= count; i += 4) {
        lanes[g[i]] += static_cast<uint64_t>(val[i]);
        cnt[g[i]]++;
        lanes[num_groups + g[i + 1]] += static_cast<uint64_t>(val[i + 1]);
        cnt[num_groups + g[i + 1]]++;
        lanes[2 * num_groups + g[i + 2]] += static_cast<uint64_t>(val[i + 2]);
        cnt[2 * num_groups + g[i + 2]]++;
        lanes[3 * num_groups + g[i + 3]] += static_cast<uint64_t>(val[i + 3]);
        cnt[3 * num_groups + g[i + 3]]++;
      }
      for (; i < count; ++i) {
        lanes[g[i]] += static_cast<uint64_t>(val[i]);
        cnt[g[i]]++;
      }
    } else {
      const uint8_t* v = ap.validity + begin;
      for (; i < count; ++i) {
        if (!v[i]) continue;
        const size_t slot = (i & 3) * num_groups + g[i];
        lanes[slot] += static_cast<uint64_t>(val[i]);
        cnt[slot]++;
      }
    }
    for (size_t grp = 0; grp < num_groups; ++grp) {
      if (lane_sum(cnt, grp) == 0) continue;
      col[grp].isum = WrapAdd(col[grp].isum, lane_sum(lanes, grp));
      col[grp].saw_value = true;
    }
    return true;
  }
  // count(*) counts every row; count() only the valid ones.
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
  int64_t AggState::*field = &AggState::count;
  if (ap.kind == AccKind::kCountStar) field = &AggState::row_count;
  for (size_t grp = 0; grp < num_groups; ++grp) {
    col[grp].*field += lane_sum(lanes, grp);
  }
  return true;
}

// Folds one accumulator of the spec planned as `ap` into another
// (associative, and commutative up to the first-seen tie-breaks the callers'
// row ordering fixes).
inline void MergeState(AggState& d, const AggState& s, const AccPlan& ap) {
  d.row_count += s.row_count;
  d.count += s.count;
  switch (ap.kind) {
    case AccKind::kSumInt:
      d.isum = WrapAdd(d.isum, s.isum);
      break;
    case AccKind::kSumFloat:
    case AccKind::kAvg:
      d.sum += s.sum;
      break;
    case AccKind::kMinInt:
      if (s.saw_value && (!d.saw_value || s.imin < d.imin)) d.imin = s.imin;
      break;
    case AccKind::kMaxInt:
      if (s.saw_value && (!d.saw_value || s.imax > d.imax)) d.imax = s.imax;
      break;
    case AccKind::kMinNum:
      if (s.min < d.min) d.min = s.min;
      break;
    case AccKind::kMaxNum:
      if (s.max > d.max) d.max = s.max;
      break;
    case AccKind::kMinStr:
      if (s.saw_value && (!d.saw_value || ap.CodeLess(s.smin, d.smin))) {
        d.smin = s.smin;
      }
      break;
    case AccKind::kMaxStr:
      if (s.saw_value && (!d.saw_value || ap.CodeLess(d.smax, s.smax))) {
        d.smax = s.smax;
      }
      break;
    case AccKind::kCountStar:
    case AccKind::kCount:
    case AccKind::kAvgStr:
      break;
  }
  d.saw_value = d.saw_value || s.saw_value;
}

// The type of StateValue's non-NULL values for `kind`.
inline DataType StateType(AccKind kind) {
  switch (kind) {
    case AccKind::kCountStar:
    case AccKind::kCount:
    case AccKind::kSumInt:
    case AccKind::kMinInt:
    case AccKind::kMaxInt:
      return DataType::kInt64;
    case AccKind::kMinStr:
    case AccKind::kMaxStr:
      return DataType::kString;
    case AccKind::kSumFloat:
    case AccKind::kAvg:
    case AccKind::kAvgStr:
    case AccKind::kMinNum:
    case AccKind::kMaxNum:
      break;
  }
  return DataType::kFloat64;
}

// The aggregate's value: counts are never NULL; every other function is NULL
// until it saw a non-NULL input.
inline Value StateValue(const AggState& st, const AccPlan& ap) {
  if (ap.kind == AccKind::kCountStar) return Value::Int64(st.row_count);
  if (ap.kind == AccKind::kCount) return Value::Int64(st.count);
  if (!st.saw_value) return Value::Null();
  switch (ap.kind) {
    case AccKind::kSumInt:
      return Value::Int64(st.isum);
    case AccKind::kSumFloat:
      return Value::Float64(st.sum);
    case AccKind::kAvg:
    case AccKind::kAvgStr:
      return Value::Float64(st.sum / static_cast<double>(st.count));
    case AccKind::kMinInt:
      return Value::Int64(st.imin);
    case AccKind::kMaxInt:
      return Value::Int64(st.imax);
    case AccKind::kMinNum:
      return Value::Float64(st.min);
    case AccKind::kMaxNum:
      return Value::Float64(st.max);
    case AccKind::kMinStr:
      return Value::String(ap.dict->value(st.smin));
    case AccKind::kMaxStr:
      return Value::String(ap.dict->value(st.smax));
    case AccKind::kCountStar:
    case AccKind::kCount:
      break;  // handled above
  }
  return Value::Null();
}

}  // namespace aggdetail
}  // namespace pctagg

#endif  // PCTAGG_ENGINE_AGG_INTERNAL_H_
