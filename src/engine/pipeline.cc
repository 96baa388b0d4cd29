#include "engine/pipeline.h"

#include <algorithm>
#include <cstring>

#include "common/cpu.h"
#include "engine/agg_internal.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "obs/trace.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pctagg {

namespace {

using aggdetail::AccPlan;
using aggdetail::AggState;

constexpr uint32_t kEmpty = UINT32_MAX;

// ---------------------------------------------------------------------------
// Inline key table: the fused keying tier for <= 2 group columns. Instead of
// packing tag+payload bytes into a key buffer and re-reading them through the
// generic KeyMap arena, each key is two 64-bit payload words (int64 bits,
// float64 bits, or the 4-byte dictionary code) plus a null-flag byte held in
// registers straight off the column arrays. Equality over (payloads, nulls)
// is exactly packed-key equality — per column, both NULL or both valid with
// identical payload bits; the column types are fixed per query so no type
// tag is needed — which keeps group identity, and therefore results,
// identical to the materialized path.
// ---------------------------------------------------------------------------

struct GroupColRef {
  DataType type;
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint32_t* codes = nullptr;
};

inline GroupColRef MakeGroupColRef(const Column& c) {
  GroupColRef r;
  r.type = c.type();
  r.validity = c.validity().data();
  switch (c.type()) {
    case DataType::kInt64:
      r.i64 = c.int64_data().data();
      break;
    case DataType::kFloat64:
      r.f64 = c.float64_data().data();
      break;
    case DataType::kString:
      r.codes = c.codes().data();
      break;
  }
  return r;
}

inline uint64_t PayloadAt(const GroupColRef& c, size_t row) {
  switch (c.type) {
    case DataType::kInt64:
      return static_cast<uint64_t>(c.i64[row]);
    case DataType::kFloat64: {
      uint64_t bits;
      std::memcpy(&bits, &c.f64[row], 8);
      return bits;
    }
    case DataType::kString:
      return c.codes[row];
  }
  return 0;
}

struct InlineKeyTable {
  std::vector<uint64_t> slot_hash;
  std::vector<uint32_t> slot_id;  // kEmpty marks a free slot
  std::vector<uint64_t> k0, k1;   // dense payload words, by id
  std::vector<uint8_t> kn;        // dense null-flag bytes, by id
  size_t mask = 0;

  size_t size() const { return k0.size(); }
  size_t slots() const { return slot_id.size(); }

  static uint64_t HashKey(uint64_t a, uint64_t b, uint8_t nb) {
    uint64_t h = (a ^ 0x9e3779b97f4a7c15ULL) * 0x2545f4914f6cdd1dULL;
    h ^= (b + 0xc2b2ae3d27d4eb4fULL) * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(nb) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
    return h;
  }

  void Grow(size_t min_slots) {
    size_t n = 64;
    while (n < min_slots) n <<= 1;
    if (!slot_id.empty() && n <= slot_id.size()) return;
    std::vector<uint64_t> old_hash = std::move(slot_hash);
    std::vector<uint32_t> old_id = std::move(slot_id);
    slot_hash.assign(n, 0);
    slot_id.assign(n, kEmpty);
    mask = n - 1;
    for (size_t s = 0; s < old_id.size(); ++s) {
      if (old_id[s] == kEmpty) continue;
      size_t idx = old_hash[s] & mask;
      while (slot_id[idx] != kEmpty) idx = (idx + 1) & mask;
      slot_hash[idx] = old_hash[s];
      slot_id[idx] = old_id[s];
    }
  }

  uint32_t GetOrAdd(uint64_t a, uint64_t b, uint8_t nb, size_t row,
                    std::vector<size_t>* first_row) {
    if (slot_id.empty()) Grow(64);
    const uint64_t h = HashKey(a, b, nb);
    size_t idx = h & mask;
    for (;;) {
      const uint32_t slot = slot_id[idx];
      if (slot == kEmpty) {
        const uint32_t id = static_cast<uint32_t>(k0.size());
        k0.push_back(a);
        k1.push_back(b);
        kn.push_back(nb);
        slot_hash[idx] = h;
        slot_id[idx] = id;
        first_row->push_back(row);
        if ((static_cast<size_t>(id) + 1) * 2 >= slot_id.size()) {
          Grow(slot_id.size() * 2);
        }
        return id;
      }
      if (slot_hash[idx] == h && k0[slot] == a && k1[slot] == b &&
          kn[slot] == nb) {
        if (row < (*first_row)[slot]) (*first_row)[slot] = row;
        return slot;
      }
      idx = (idx + 1) & mask;
    }
  }
};

// ---------------------------------------------------------------------------
// WHERE-mask helpers.
// ---------------------------------------------------------------------------

// Compacts the mask over [begin, end) into a list of matching absolute row
// ids. The SSE2 path (baseline on x86-64, but still behind the runtime SIMD
// switch so PCTAGG_DISABLE_SIMD covers the scalar loop) classifies 16 mask
// bytes per movemask: all-zero blocks are skipped and all-ones blocks append
// 16 consecutive rows without per-row branches — selective and permissive
// filters both collapse to one branch per block.
size_t BuildSelection(const uint8_t* mask, size_t begin, size_t end,
                      uint32_t* sel) {
  size_t out = 0;
  size_t row = begin;
#if defined(__x86_64__)
  if (SimdEnabled()) {
    const __m128i zero = _mm_setzero_si128();
    for (; row + 16 <= end; row += 16) {
      const __m128i block = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(mask + row));
      const int zeros =
          _mm_movemask_epi8(_mm_cmpeq_epi8(block, zero));
      if (zeros == 0xFFFF) continue;  // no row selected
      if (zeros == 0) {               // every row selected
        for (int k = 0; k < 16; ++k) {
          sel[out++] = static_cast<uint32_t>(row + k);
        }
        continue;
      }
      int bits = ~zeros & 0xFFFF;
      while (bits != 0) {
        const int k = __builtin_ctz(bits);
        sel[out++] = static_cast<uint32_t>(row + k);
        bits &= bits - 1;
      }
    }
  }
#endif
  for (; row < end; ++row) {
    if (mask[row] != 0) sel[out++] = static_cast<uint32_t>(row);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Vectorized divide.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)
__attribute__((target("avx2"))) void DivideLanesAvx2(const double* a,
                                                     const double* b,
                                                     double* r, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(r + i, _mm256_div_pd(_mm256_loadu_pd(a + i),
                                          _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) r[i] = a[i] / b[i];
}
#endif

void DivideLanes(const double* a, const double* b, double* r, size_t n) {
#if defined(__x86_64__)
  if (CpuHasAvx2() && SimdEnabled()) {
    DivideLanesAvx2(a, b, r, n);
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) r[i] = a[i] / b[i];
}

bool IsNumeric(const Column& c) {
  return c.type() == DataType::kInt64 || c.type() == DataType::kFloat64;
}

// One worker's thread-local fused partial state. Which keying structure is
// live depends on the tier picked for the whole aggregation.
struct FusedPartial {
  InlineKeyTable itab;
  KeyMap groups;
  std::vector<std::vector<AggState>> spec_states;  // [agg][local group]
  std::vector<size_t> first_row;
  std::vector<uint32_t> gid;         // morsel scratch: group id per kept row
  std::vector<uint32_t> sel;         // morsel scratch: kept absolute rows
  std::vector<char> key_buf;         // morsel scratch: packed keys
  std::vector<int64_t> lane_scratch; // morsel scratch: unrolled lanes
};

}  // namespace

Result<Table> FusedAggregate(const Table& input, const ExprPtr& where,
                             const std::vector<std::string>& group_by,
                             const std::vector<AggSpec>& aggs, size_t dop) {
  // WHERE becomes a mask, never a row copy: the filter stage of the fused
  // pipeline only decides which rows the partial-agg stage consumes.
  const size_t n = input.num_rows();
  std::vector<uint8_t> mask;
  if (where != nullptr) {
    obs::OpScope filter_op("filter");
    PCTAGG_ASSIGN_OR_RETURN(mask, where->KeepMask(input));
    if (filter_op.active()) {
      const size_t kept = std::count(mask.begin(), mask.end(), 1);
      filter_op.SetRows(n, kept);
      filter_op.SetDetail("fused mask");
    }
  }

  obs::OpScope op("aggregate");
  PCTAGG_ASSIGN_OR_RETURN(aggdetail::AggBindings bind,
                          aggdetail::BindAggs(input, group_by, aggs));
  const std::vector<size_t>& group_idx = bind.group_idx;
  const std::vector<AccPlan>& acc_plans = bind.acc_plans;

  if (dop == 0) dop = CurrentDop();
  MorselPlan plan = MorselPlan::Auto(n, dop);

  // Keying tier. Direct-dict mirrors HashAggregate's: one small-dictionary
  // string column means the code IS the dense group id. The inline table
  // covers up to two group columns of any type; wider keys fall back to the
  // packed KeyMap batch path (which now carries the AVX2 candidate probe).
  constexpr size_t kDirectDictMaxSlots = 4096;
  enum class Tier { kDirectDict, kInline, kPacked };
  Tier tier = group_idx.size() <= 2 ? Tier::kInline : Tier::kPacked;
  const uint32_t* direct_codes = nullptr;
  const uint8_t* direct_validity = nullptr;
  size_t direct_slots = 0;
  if (group_idx.size() == 1 &&
      input.column(group_idx[0]).type() == DataType::kString) {
    const Column& gc = input.column(group_idx[0]);
    if (gc.dict()->size() + 1 <= kDirectDictMaxSlots) {
      direct_codes = gc.codes().data();
      direct_validity = gc.validity().data();
      direct_slots = gc.dict()->size() + 1;
      tier = Tier::kDirectDict;
    }
  }
  std::vector<GroupColRef> group_refs;
  if (tier == Tier::kInline) {
    group_refs.reserve(group_idx.size());
    for (size_t gi : group_idx) {
      group_refs.push_back(MakeGroupColRef(input.column(gi)));
    }
  }
  const KeyEncoder encoder(input, group_idx);

  // The unrolled integer lanes kick in for unfiltered morsels over small
  // group domains; they are bit-identical to the scalar loop (integer
  // addition) but sit behind the runtime SIMD switch so the scalar kernels
  // stay exercised under PCTAGG_DISABLE_SIMD=1.
  const bool lanes_enabled = SimdEnabled();
  constexpr size_t kLaneMaxGroups = 4096;
  constexpr size_t kLaneMinRows = 512;

  std::vector<FusedPartial> partials(plan.num_workers);
  for (FusedPartial& p : partials) {
    p.spec_states.resize(aggs.size());
    if (tier == Tier::kDirectDict) {
      for (std::vector<AggState>& sc : p.spec_states) sc.resize(direct_slots);
      p.first_row.assign(direct_slots, SIZE_MAX);
    }
  }
  const uint8_t* mask_data = mask.empty() ? nullptr : mask.data();

  size_t ran = RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    FusedPartial& p = partials[worker];
    const size_t span = end - begin;
    if (p.gid.size() < span) p.gid.resize(span);

    // Filter stage: compact the mask into this morsel's selection list.
    const uint32_t* rows = nullptr;
    size_t count = span;
    if (mask_data != nullptr) {
      if (p.sel.size() < span) p.sel.resize(span);
      count = BuildSelection(mask_data, begin, end, p.sel.data());
      rows = p.sel.data();
      if (count == 0) return;
    }

    // Keying stage: local group id per kept row.
    switch (tier) {
      case Tier::kDirectDict: {
        const uint32_t null_slot = static_cast<uint32_t>(direct_slots - 1);
        if (rows == nullptr) {
          for (size_t row = begin; row < end; ++row) {
            const uint32_t g =
                direct_validity[row] ? direct_codes[row] : null_slot;
            if (row < p.first_row[g]) p.first_row[g] = row;
            p.gid[row - begin] = g;
          }
        } else {
          for (size_t i = 0; i < count; ++i) {
            const uint32_t row = rows[i];
            const uint32_t g =
                direct_validity[row] ? direct_codes[row] : null_slot;
            if (row < p.first_row[g]) p.first_row[g] = row;
            p.gid[i] = g;
          }
        }
        break;
      }
      case Tier::kInline: {
        const size_t ncols = group_refs.size();
        const GroupColRef* c0 = ncols > 0 ? &group_refs[0] : nullptr;
        const GroupColRef* c1 = ncols > 1 ? &group_refs[1] : nullptr;
        for (size_t i = 0; i < count; ++i) {
          const size_t row = rows != nullptr ? rows[i] : begin + i;
          uint64_t a = 0, b = 0;
          uint8_t nb = 0;
          if (c0 != nullptr) {
            if (c0->validity[row] != 0) {
              a = PayloadAt(*c0, row);
            } else {
              nb |= 1;
            }
          }
          if (c1 != nullptr) {
            if (c1->validity[row] != 0) {
              b = PayloadAt(*c1, row);
            } else {
              nb |= 2;
            }
          }
          p.gid[i] = p.itab.GetOrAdd(a, b, nb, row, &p.first_row);
        }
        for (std::vector<AggState>& sc : p.spec_states) {
          if (sc.size() < p.itab.size()) sc.resize(p.itab.size());
        }
        break;
      }
      case Tier::kPacked: {
        if (!encoder.fixed_only()) {
          // Variable-width keys (none today, but keep the engine entry point
          // total): per-row generic keying, same as HashAggregate's fallback.
          std::string key;
          key.reserve(encoder.fixed_width() + 16);
          for (size_t i = 0; i < count; ++i) {
            const size_t row = rows != nullptr ? rows[i] : begin + i;
            key.clear();
            encoder.AppendKey(row, &key);
            auto [g, inserted] = p.groups.GetOrAdd(key);
            if (inserted) {
              p.first_row.push_back(row);
            } else if (row < p.first_row[g]) {
              p.first_row[g] = row;
            }
            p.gid[i] = static_cast<uint32_t>(g);
          }
          for (std::vector<AggState>& sc : p.spec_states) {
            if (sc.size() < p.groups.size()) sc.resize(p.groups.size());
          }
          break;
        }
        const size_t stride = encoder.fixed_width();
        if (p.key_buf.size() < count * stride) {
          p.key_buf.resize(count * stride);
        }
        if (rows == nullptr) {
          encoder.EncodeFixedBatch(begin, end, p.key_buf.data());
          p.groups.GetOrAddFixedBatch(p.key_buf.data(), stride, count, begin,
                                      p.gid.data(), &p.first_row);
        } else {
          encoder.EncodeFixedRows(rows, count, p.key_buf.data());
          p.groups.GetOrAddFixedBatchRows(p.key_buf.data(), stride, count,
                                          rows, p.gid.data(), &p.first_row);
        }
        for (std::vector<AggState>& sc : p.spec_states) {
          if (sc.size() < p.groups.size()) sc.resize(p.groups.size());
        }
        break;
      }
    }

    // Accumulation stage.
    for (size_t a = 0; a < acc_plans.size(); ++a) {
      std::vector<AggState>& col = p.spec_states[a];
      if (rows == nullptr) {
        if (lanes_enabled && col.size() <= kLaneMaxGroups &&
            span >= kLaneMinRows &&
            aggdetail::AccumulateMorselUnrolled(acc_plans[a], p.gid, begin,
                                                end, col.size(), col,
                                                p.lane_scratch)) {
          continue;
        }
        aggdetail::AccumulateMorsel(acc_plans[a], p.gid, begin, end, col);
      } else {
        aggdetail::AccumulateRows(acc_plans[a], p.gid.data(), rows, count,
                                  col);
      }
    }
  });

  // Merge phase: per-worker partials combined once. Output order is the
  // global first-seen order (each group's minimum input row), exactly as the
  // materialized path emits.
  std::vector<std::vector<AggState>> states;
  std::vector<size_t> representative_row;
  const size_t num_specs = aggs.size();
  if (tier == Tier::kDirectDict) {
    FusedPartial& p0 = partials[0];
    for (size_t w = 1; w < partials.size(); ++w) {
      const FusedPartial& pw = partials[w];
      for (size_t g = 0; g < direct_slots; ++g) {
        if (pw.first_row[g] == SIZE_MAX) continue;
        for (size_t a = 0; a < num_specs; ++a) {
          aggdetail::MergeState(p0.spec_states[a][g], pw.spec_states[a][g],
                                acc_plans[a].kind);
        }
        p0.first_row[g] = std::min(p0.first_row[g], pw.first_row[g]);
      }
    }
    std::vector<uint32_t> order;
    order.reserve(direct_slots);
    for (size_t g = 0; g < direct_slots; ++g) {
      if (p0.first_row[g] != SIZE_MAX) order.push_back(static_cast<uint32_t>(g));
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return p0.first_row[a] < p0.first_row[b];
    });
    states.reserve(order.size());
    representative_row.reserve(order.size());
    for (uint32_t g : order) {
      states.push_back(aggdetail::GatherStates(p0.spec_states, g));
      representative_row.push_back(p0.first_row[g]);
    }
  } else if (tier == Tier::kInline) {
    FusedPartial& p0 = partials[0];
    for (size_t w = 1; w < partials.size(); ++w) {
      FusedPartial& pw = partials[w];
      for (size_t id = 0; id < pw.itab.size(); ++id) {
        const uint32_t g = p0.itab.GetOrAdd(pw.itab.k0[id], pw.itab.k1[id],
                                            pw.itab.kn[id], pw.first_row[id],
                                            &p0.first_row);
        for (std::vector<AggState>& sc : p0.spec_states) {
          if (sc.size() < p0.itab.size()) sc.resize(p0.itab.size());
        }
        for (size_t a = 0; a < num_specs; ++a) {
          aggdetail::MergeState(p0.spec_states[a][g], pw.spec_states[a][id],
                                acc_plans[a].kind);
        }
      }
    }
    const size_t groups = p0.itab.size();
    std::vector<uint32_t> order(groups);
    for (size_t g = 0; g < groups; ++g) order[g] = static_cast<uint32_t>(g);
    if (partials.size() > 1) {
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return p0.first_row[a] < p0.first_row[b];
      });
    }
    states.reserve(groups);
    representative_row.reserve(groups);
    for (uint32_t g : order) {
      states.push_back(aggdetail::GatherStates(p0.spec_states, g));
      representative_row.push_back(p0.first_row[g]);
    }
  } else {
    struct MergedGroup {
      std::vector<AggState> states;
      size_t first_row;
    };
    KeyMap seen;
    std::vector<MergedGroup> merged;
    if (plan.num_workers <= 1) {
      FusedPartial& p = partials[0];
      states.reserve(p.groups.size());
      for (size_t g = 0; g < p.groups.size(); ++g) {
        states.push_back(aggdetail::GatherStates(p.spec_states, g));
      }
      representative_row = std::move(p.first_row);
    } else {
      for (const FusedPartial& p : partials) {
        p.groups.ForEach([&](std::string_view key, size_t id) {
          auto [g, inserted] = seen.GetOrAdd(key);
          if (inserted) {
            merged.push_back(
                {aggdetail::GatherStates(p.spec_states, id), p.first_row[id]});
          } else {
            for (size_t a = 0; a < num_specs; ++a) {
              aggdetail::MergeState(merged[g].states[a],
                                    p.spec_states[a][id], acc_plans[a].kind);
            }
            merged[g].first_row = std::min(merged[g].first_row, p.first_row[id]);
          }
        });
      }
      std::sort(merged.begin(), merged.end(),
                [](const MergedGroup& a, const MergedGroup& b) {
                  return a.first_row < b.first_row;
                });
      states.reserve(merged.size());
      representative_row.reserve(merged.size());
      for (MergedGroup& mg : merged) {
        states.push_back(std::move(mg.states));
        representative_row.push_back(mg.first_row);
      }
    }
  }

  if (op.active()) {
    std::string detail = "fused ";
    switch (tier) {
      case Tier::kDirectDict: {
        op.SetHashTable(states.size(), direct_slots);
        detail += "keys=direct-dict(" + std::to_string(direct_slots - 1) + ")";
        break;
      }
      case Tier::kInline: {
        size_t peak_groups = 0, peak_slots = 0;
        for (const FusedPartial& p : partials) {
          if (p.itab.size() > peak_groups) {
            peak_groups = p.itab.size();
            peak_slots = p.itab.slots();
          }
        }
        op.SetHashTable(peak_groups, peak_slots);
        detail += "keys=inline(" + std::to_string(group_idx.size()) + "x8B)";
        break;
      }
      case Tier::kPacked: {
        size_t peak_groups = 0, peak_slots = 0;
        for (const FusedPartial& p : partials) {
          if (p.groups.size() > peak_groups) {
            peak_groups = p.groups.size();
            peak_slots = p.groups.slots();
          }
        }
        op.SetHashTable(peak_groups, peak_slots);
        detail += "keys=packed(" + std::to_string(encoder.fixed_width()) + "B)";
        break;
      }
    }
    if (mask_data != nullptr) detail += "+where";
    op.SetDetail(detail);
    op.SetRows(n, states.size());
    op.SetMorsels(plan.num_morsels, ran);
    if (plan.num_workers > 1) op.SetPartialsMerged(partials.size());
  }

  return aggdetail::EmitAggOutput(input, group_idx, aggs, bind.out_types,
                                  states, representative_row);
}

Result<Column> PercentDivideColumns(const Column& num, const Column& den) {
  if (!IsNumeric(num) || !IsNumeric(den)) {
    return Status::TypeMismatch("percentage divide requires numeric operands");
  }
  const size_t n = num.size();
  std::vector<double> a(n), b(n), r(n);
  std::vector<uint8_t> ok(n);
  const uint8_t* nv = num.validity().data();
  const uint8_t* dv = den.validity().data();
  for (size_t i = 0; i < n; ++i) {
    // NULL slots hold placeholder payloads; reading them is fine because
    // `ok` masks those lanes out of the output.
    a[i] = num.NumericAt(i);
    b[i] = den.NumericAt(i);
    ok[i] = nv[i] != 0 && dv[i] != 0 && b[i] != 0.0;
  }
  DivideLanes(a.data(), b.data(), r.data(), n);
  Column out(DataType::kFloat64);
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ok[i]) {
      out.AppendFloat64(r[i]);
    } else {
      out.AppendNull();
    }
  }
  return out;
}

Result<Column> PercentDivideScalar(const Column& num, const Value& total) {
  if (!IsNumeric(num)) {
    return Status::TypeMismatch("percentage divide requires numeric operands");
  }
  const size_t n = num.size();
  Column out(DataType::kFloat64);
  out.Reserve(n);
  if (total.is_null() || total.AsDouble() == 0.0) {
    for (size_t i = 0; i < n; ++i) out.AppendNull();
    return out;
  }
  const double b = total.AsDouble();
  std::vector<double> a(n), bb(n, b), r(n);
  const uint8_t* nv = num.validity().data();
  for (size_t i = 0; i < n; ++i) a[i] = num.NumericAt(i);
  DivideLanes(a.data(), bb.data(), r.data(), n);
  for (size_t i = 0; i < n; ++i) {
    if (nv[i] != 0) {
      out.AppendFloat64(r[i]);
    } else {
      out.AppendNull();
    }
  }
  return out;
}

}  // namespace pctagg
