#include "engine/aggregate.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string_view>

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
// Inline key table: the keying tier for <= 2 group columns. Instead of
// packing tag+payload bytes into a key buffer and re-reading them through the
// generic KeyMap arena, each key is two 64-bit payload words (int64 bits,
// float64 bits, or the 4-byte dictionary code) plus a null-flag byte held in
// registers straight off the column arrays. Equality over (payloads, nulls)
// is exactly packed-key equality — per column, both NULL or both valid with
// identical payload bits; the column types are fixed per query so no type
// tag is needed — so group identity does not depend on the tier.
// ---------------------------------------------------------------------------

struct GroupColRef {
  DataType type;
  const uint8_t* validity = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const uint32_t* codes = nullptr;
};

GroupColRef MakeGroupColRef(const Column& c) {
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
  // The bytes a key packs into for the partitioned merge: k0, k1, null flags.
  static constexpr size_t kKeyBytes = 17;

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

  void KeyBytes(size_t id, char* out) const {
    std::memcpy(out, &k0[id], 8);
    std::memcpy(out + 8, &k1[id], 8);
    out[16] = static_cast<char>(kn[id]);
  }
};

// Compacts the WHERE mask over [begin, end) into a list of matching absolute
// row ids. The SSE2 path (baseline on x86-64, but still behind the runtime
// SIMD switch so PCTAGG_DISABLE_SIMD covers the scalar loop) classifies 16
// mask bytes per movemask: all-zero blocks are skipped and all-ones blocks
// append 16 consecutive rows without per-row branches — selective and
// permissive filters both collapse to one branch per block.
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

// Group-by resolution + aggregate validation + vectorized input evaluation.
// `acc_plans` holds raw pointers into `agg_inputs`; both stay valid across
// moves of the whole struct (vector storage is stable under move).
struct AggBindings {
  std::vector<size_t> group_idx;
  std::vector<Column> agg_inputs;
  std::vector<AccPlan> acc_plans;
};

Result<AggBindings> BindAggs(const Table& input,
                             const std::vector<std::string>& group_by,
                             const std::vector<AggSpec>& aggs) {
  AggBindings b;
  b.group_idx.reserve(group_by.size());
  for (const std::string& name : group_by) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    b.group_idx.push_back(idx);
  }
  b.agg_inputs.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    if (spec.func == AggFunc::kCountStar) {
      b.agg_inputs.emplace_back(DataType::kInt64);  // placeholder, unused
      continue;
    }
    if (spec.input == nullptr) {
      return Status::InvalidArgument("aggregate requires an input expression");
    }
    PCTAGG_ASSIGN_OR_RETURN(Column c, spec.input->Evaluate(input));
    if (spec.func == AggFunc::kSum && c.type() == DataType::kString) {
      return Status::TypeMismatch("sum() over string column");
    }
    b.agg_inputs.push_back(std::move(c));
  }
  b.acc_plans.reserve(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    b.acc_plans.push_back(
        aggdetail::MakeAccPlan(aggs[a].func, b.agg_inputs[a]));
  }
  return b;
}

// Keying tier, picked once per aggregation. Direct-dict: one small-dictionary
// string column, whose code IS the dense group id — no hashing, no key bytes,
// no probe. Inline: up to two group columns of any type. Packed: wider keys,
// through the KeyMap batch path (which carries the AVX2 candidate probe).
enum class Tier { kDirectDict, kInline, kPacked };

// One worker's thread-local partial aggregation. Accumulators are laid out
// per spec ([agg][local group]) so each spec's morsel loop walks one
// contiguous array. Which keying structure is live depends on the tier.
struct AggPartial {
  InlineKeyTable itab;
  KeyMap groups;
  std::vector<std::vector<AggState>> spec_states;  // [agg][local group]
  std::vector<size_t> first_row;       // min input row per local group
  std::vector<uint32_t> gid;           // morsel scratch: group id per kept row
  std::vector<uint32_t> sel;           // morsel scratch: kept absolute rows
  std::vector<char> key_buf;           // morsel scratch: packed keys
  std::vector<uint64_t> lane_scratch;  // morsel scratch: unrolled lanes
};

// The global groups after the merge: their states ([agg][group]), each
// group's first input row (its representative), and the emission order —
// ascending first input row, the order a serial run first sees them in.
struct MergedGroups {
  std::vector<std::vector<AggState>> cols;
  std::vector<size_t> first_row;
  std::vector<uint32_t> order;
};

// Direct-dict tier: merge elementwise into partial 0, then emit the slots
// that saw rows, ordered by first input row. (Code order is NOT first-seen
// order in general — a derived table can hold a shared dictionary's codes in
// any row order — so the sort applies even for a single worker.)
MergedGroups MergeDirect(std::vector<AggPartial>& partials,
                         const std::vector<AccPlan>& plans, size_t slots) {
  AggPartial& p0 = partials[0];
  for (size_t w = 1; w < partials.size(); ++w) {
    const AggPartial& pw = partials[w];
    for (size_t g = 0; g < slots; ++g) {
      if (pw.first_row[g] == SIZE_MAX) continue;
      for (size_t a = 0; a < plans.size(); ++a) {
        aggdetail::MergeState(p0.spec_states[a][g], pw.spec_states[a][g],
                              plans[a]);
      }
      p0.first_row[g] = std::min(p0.first_row[g], pw.first_row[g]);
    }
  }
  MergedGroups m;
  m.cols = std::move(p0.spec_states);
  m.first_row = std::move(p0.first_row);
  for (size_t g = 0; g < slots; ++g) {
    if (m.first_row[g] != SIZE_MAX) m.order.push_back(static_cast<uint32_t>(g));
  }
  std::sort(m.order.begin(), m.order.end(), [&m](uint32_t a, uint32_t b) {
    return m.first_row[a] < m.first_row[b];
  });
  return m;
}

// Hashed tiers (inline and packed). A single worker's partial is already the
// answer, in first-seen order. Otherwise the key space is split into hash
// partitions merged in parallel — each partition walks every partial's keys
// and keeps its own — and the result is ordered by each group's first input
// row, reproducing exactly the first-seen order a serial run emits.
MergedGroups MergeHashed(std::vector<AggPartial>& partials, Tier tier,
                         const std::vector<AccPlan>& plans) {
  MergedGroups m;
  if (partials.size() == 1) {
    m.cols = std::move(partials[0].spec_states);
    m.first_row = std::move(partials[0].first_row);
    m.order.resize(m.first_row.size());
    std::iota(m.order.begin(), m.order.end(), 0u);
    return m;
  }
  const size_t num_specs = plans.size();
  const size_t num_parts = partials.size();
  struct Part {
    std::vector<std::vector<AggState>> cols;  // [agg][partition group]
    std::vector<size_t> first_row;
  };
  std::vector<Part> parts(num_parts);
  RunPartitions(num_parts, num_parts, [&](size_t part) {
    KeyMap seen;
    Part& out = parts[part];
    out.cols.resize(num_specs);
    auto merge_key = [&](const AggPartial& p, std::string_view key,
                         size_t id) {
      if (KeyMap::Hash(key) % num_parts != part) return;
      auto [g, inserted] = seen.GetOrAdd(key);
      if (inserted) {
        for (size_t a = 0; a < num_specs; ++a) {
          out.cols[a].push_back(p.spec_states[a][id]);
        }
        out.first_row.push_back(p.first_row[id]);
        return;
      }
      for (size_t a = 0; a < num_specs; ++a) {
        aggdetail::MergeState(out.cols[a][g], p.spec_states[a][id], plans[a]);
      }
      out.first_row[g] = std::min(out.first_row[g], p.first_row[id]);
    };
    for (const AggPartial& p : partials) {
      if (tier == Tier::kPacked) {
        p.groups.ForEach(
            [&](std::string_view key, size_t id) { merge_key(p, key, id); });
        continue;
      }
      char buf[InlineKeyTable::kKeyBytes];
      for (size_t id = 0; id < p.itab.size(); ++id) {
        p.itab.KeyBytes(id, buf);
        merge_key(p, std::string_view(buf, sizeof(buf)), id);
      }
    }
  });
  m.cols.resize(num_specs);
  for (Part& part : parts) {
    for (size_t a = 0; a < num_specs; ++a) {
      m.cols[a].insert(m.cols[a].end(), part.cols[a].begin(),
                       part.cols[a].end());
    }
    m.first_row.insert(m.first_row.end(), part.first_row.begin(),
                       part.first_row.end());
  }
  m.order.resize(m.first_row.size());
  std::iota(m.order.begin(), m.order.end(), 0u);
  std::sort(m.order.begin(), m.order.end(), [&m](uint32_t a, uint32_t b) {
    return m.first_row[a] < m.first_row[b];
  });
  return m;
}

// Builds the result table from the merged groups in emission order, each
// group's columns copied from its first input row. A global aggregation over
// zero rows still produces one (empty) group.
Result<Table> EmitAggOutput(const Table& input, const AggBindings& bind,
                            const std::vector<AggSpec>& aggs,
                            const MergedGroups& m) {
  Schema out_schema;
  for (size_t gi : bind.group_idx) {
    out_schema.AddColumn(input.schema().column(gi));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    out_schema.AddColumn(
        {aggs[a].output_name, aggdetail::StateType(bind.acc_plans[a].kind)});
  }
  Table out(out_schema);
  const bool empty_global = bind.group_idx.empty() && m.order.empty();
  const size_t groups = empty_global ? 1 : m.order.size();
  out.Reserve(groups);
  std::vector<Value> row;
  row.reserve(bind.group_idx.size() + aggs.size());
  for (size_t k = 0; k < groups; ++k) {
    row.clear();
    for (size_t gi : bind.group_idx) {
      row.push_back(input.column(gi).GetValue(m.first_row[m.order[k]]));
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(aggdetail::StateValue(
          empty_global ? AggState{} : m.cols[a][m.order[k]],
          bind.acc_plans[a]));
    }
    PCTAGG_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return "count";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

Result<Table> HashAggregate(const Table& input,
                            const std::vector<std::string>& group_by,
                            const std::vector<AggSpec>& aggs, size_t dop,
                            const ExprPtr& where) {
  // WHERE becomes a mask, never a row copy: the filter stage only decides
  // which rows the keying and accumulation stages consume.
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
  PCTAGG_ASSIGN_OR_RETURN(AggBindings bind, BindAggs(input, group_by, aggs));
  const std::vector<size_t>& group_idx = bind.group_idx;
  const std::vector<AccPlan>& acc_plans = bind.acc_plans;

  if (dop == 0) dop = CurrentDop();
  MorselPlan plan = MorselPlan::Auto(n, dop);

  // The cap bounds the per-worker footprint of the direct-dict arrays for
  // dictionaries much larger than the actual group count (a shared
  // dictionary can hold codes this column never uses).
  constexpr size_t kDirectDictMaxSlots = 4096;
  Tier tier = group_idx.size() <= 2 ? Tier::kInline : Tier::kPacked;
  const uint32_t* direct_codes = nullptr;
  const uint8_t* direct_validity = nullptr;
  size_t direct_slots = 0;  // dictionary size + 1: the last slot takes NULLs
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

  std::vector<AggPartial> partials(plan.num_workers);
  for (AggPartial& p : partials) {
    p.spec_states.resize(aggs.size());
    if (tier == Tier::kDirectDict) {
      for (std::vector<AggState>& sc : p.spec_states) sc.resize(direct_slots);
      p.first_row.assign(direct_slots, SIZE_MAX);
    }
  }
  const uint8_t* mask_data = mask.empty() ? nullptr : mask.data();

  size_t ran = RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    AggPartial& p = partials[worker];
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
    size_t groups = direct_slots;
    switch (tier) {
      case Tier::kDirectDict: {
        const uint32_t null_slot = static_cast<uint32_t>(direct_slots - 1);
        for (size_t i = 0; i < count; ++i) {
          const size_t row = rows != nullptr ? rows[i] : begin + i;
          const uint32_t g =
              direct_validity[row] ? direct_codes[row] : null_slot;
          if (row < p.first_row[g]) p.first_row[g] = row;
          p.gid[i] = g;
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
        groups = p.itab.size();
        break;
      }
      case Tier::kPacked: {
        if (!encoder.fixed_only()) {
          // Variable-width keys (none today, but keep the engine entry point
          // total): per-row generic keying.
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
        } else {
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
        }
        groups = p.groups.size();
        break;
      }
    }
    // New groups' accumulators start as default states.
    for (std::vector<AggState>& sc : p.spec_states) {
      if (sc.size() < groups) sc.resize(groups);
    }

    // Accumulation stage.
    for (size_t a = 0; a < acc_plans.size(); ++a) {
      std::vector<AggState>& col = p.spec_states[a];
      if (rows == nullptr && lanes_enabled && col.size() <= kLaneMaxGroups &&
          span >= kLaneMinRows &&
          aggdetail::AccumulateMorselUnrolled(acc_plans[a], p.gid.data(),
                                              begin, end, col.size(),
                                              col.data(), p.lane_scratch)) {
        continue;
      }
      aggdetail::Accumulate(acc_plans[a], p.gid.data(), rows, begin, count,
                            col.data());
    }
  });

  // Merge phase: per-worker partials combined once.
  MergedGroups merged;
  if (tier == Tier::kDirectDict) {
    merged = MergeDirect(partials, acc_plans, direct_slots);
  } else {
    merged = MergeHashed(partials, tier, acc_plans);
  }

  if (op.active()) {
    std::string detail;
    if (tier == Tier::kDirectDict) {
      // No hash table at all: the dictionary code indexed the accumulator
      // arrays directly. Report the array size as the "slots".
      op.SetHashTable(merged.order.size(), direct_slots);
      detail = "keys=direct-dict(" + std::to_string(direct_slots - 1) + ")";
    } else {
      // Peak hash-table shape across the workers' thread-local partials.
      const bool inline_keys = tier == Tier::kInline;
      size_t peak_groups = 0, peak_slots = 0;
      for (const AggPartial& p : partials) {
        const size_t size = inline_keys ? p.itab.size() : p.groups.size();
        if (size > peak_groups) {
          peak_groups = size;
          peak_slots = inline_keys ? p.itab.slots() : p.groups.slots();
        }
      }
      op.SetHashTable(peak_groups, peak_slots);
      if (inline_keys) {
        detail = "keys=inline(" + std::to_string(group_idx.size()) + "x8B)";
      } else {
        detail = "keys=packed(" + std::to_string(encoder.fixed_width()) + "B)";
      }
    }
    if (mask_data != nullptr) detail += "+where";
    op.SetDetail(detail);
    op.SetRows(n, merged.order.size());
    op.SetMorsels(plan.num_morsels, ran);
    if (plan.num_workers > 1) op.SetPartialsMerged(partials.size());
  }

  return EmitAggOutput(input, bind, aggs, merged);
}

}  // namespace pctagg
