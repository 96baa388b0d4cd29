#include "engine/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "engine/agg_internal.h"
#include "engine/dictionary.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "obs/trace.h"

namespace pctagg {

namespace {

using aggdetail::AccPlan;
using aggdetail::AggState;

// One worker's thread-local partial aggregation table. Accumulators are
// laid out per spec ([agg][local group]) so each spec's morsel loop walks
// one contiguous array.
struct AggPartial {
  KeyMap groups;
  std::vector<std::vector<AggState>> spec_states;  // [agg][local group]
  std::vector<size_t> first_row;  // min input row per local group
  std::vector<uint32_t> gid;      // morsel scratch: local group id per row
  std::vector<char> key_buf;      // morsel scratch: fixed-stride packed keys
};

// Folds partial `p`'s accumulators for local group `id` into `dst`.
void MergeFromPartial(std::vector<AggState>& dst, const AggPartial& p,
                      size_t id, const std::vector<AccPlan>& acc_plans) {
  for (size_t a = 0; a < dst.size(); ++a) {
    aggdetail::MergeState(dst[a], p.spec_states[a][id], acc_plans[a].kind);
  }
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
                            const std::vector<AggSpec>& aggs, size_t dop) {
  obs::OpScope op("aggregate");
  // Resolve group columns, validate aggregates, evaluate inputs (vectorized,
  // once per spec) and build the per-spec accumulation micro-plans.
  PCTAGG_ASSIGN_OR_RETURN(aggdetail::AggBindings bind,
                          aggdetail::BindAggs(input, group_by, aggs));
  const std::vector<size_t>& group_idx = bind.group_idx;
  const std::vector<AccPlan>& acc_plans = bind.acc_plans;

  // Phase 1: each worker folds its morsels into a thread-local partial
  // table, keyed by the packed group key. Per morsel, a keying loop assigns
  // local group ids into the gid scratch, then each spec runs its resolved
  // accumulation loop over the morsel.
  const size_t n = input.num_rows();
  if (dop == 0) dop = CurrentDop();
  MorselPlan plan = MorselPlan::For(n, dop);
  const KeyEncoder encoder(input, group_idx);

  // Direct-array keying: grouping by ONE dictionary-encoded string column
  // whose dictionary is small means the code already IS a dense group id —
  // no hashing, no key bytes, no probe. Each worker accumulates straight
  // into arrays of dict_size + 1 slots (the extra slot takes NULL rows) and
  // the merge is elementwise. The cap bounds the per-worker footprint for
  // dictionaries much larger than the actual group count (a shared
  // dictionary can hold codes this column never uses).
  constexpr size_t kDirectDictMaxSlots = 4096;
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
    }
  }

  std::vector<AggPartial> partials(plan.num_workers);
  for (AggPartial& p : partials) {
    p.spec_states.resize(aggs.size());
    if (direct_slots > 0) {
      for (std::vector<AggState>& sc : p.spec_states) sc.resize(direct_slots);
      p.first_row.assign(direct_slots, SIZE_MAX);
    }
  }
  size_t ran = RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    AggPartial& p = partials[worker];
    const size_t count = end - begin;
    if (p.gid.size() < count) p.gid.resize(count);
    if (direct_slots > 0) {
      const uint32_t null_slot = static_cast<uint32_t>(direct_slots - 1);
      for (size_t row = begin; row < end; ++row) {
        const uint32_t g =
            direct_validity[row] ? direct_codes[row] : null_slot;
        if (row < p.first_row[g]) p.first_row[g] = row;
        p.gid[row - begin] = g;
      }
    } else if (encoder.fixed_only()) {
      // All-fixed-width keys: encode the whole morsel column-at-a-time into
      // a stride-constant buffer, then key it through the stride-specialized
      // batch probe. New groups' accumulators are default states, so the
      // spec columns just extend to the new group count afterwards.
      const size_t stride = encoder.fixed_width();
      if (p.key_buf.size() < count * stride) p.key_buf.resize(count * stride);
      encoder.EncodeFixedBatch(begin, end, p.key_buf.data());
      p.groups.GetOrAddFixedBatch(p.key_buf.data(), stride, count, begin,
                                  p.gid.data(), &p.first_row);
      for (std::vector<AggState>& sc : p.spec_states) {
        if (sc.size() < p.groups.size()) sc.resize(p.groups.size());
      }
    } else {
      std::string key;
      key.reserve(encoder.fixed_width() + 16);
      for (size_t row = begin; row < end; ++row) {
        key.clear();
        encoder.AppendKey(row, &key);
        auto [g, inserted] = p.groups.GetOrAdd(key);
        if (inserted) {
          for (std::vector<AggState>& sc : p.spec_states) sc.emplace_back();
          p.first_row.push_back(row);
        } else if (row < p.first_row[g]) {
          p.first_row[g] = row;
        }
        p.gid[row - begin] = static_cast<uint32_t>(g);
      }
    }
    for (size_t a = 0; a < acc_plans.size(); ++a) {
      aggdetail::AccumulateMorsel(acc_plans[a], p.gid, begin, end,
                                  p.spec_states[a]);
    }
  });

  // Phase 2: merge the partials into global groups. A single worker's
  // partial is already the answer, in first-seen order. Otherwise the key
  // space is split into hash partitions merged in parallel, and the result
  // ordered by each group's first input row — reproducing exactly the
  // first-seen order a serial run would emit.
  std::vector<std::vector<AggState>> states;
  std::vector<size_t> representative_row;
  if (direct_slots > 0 && !partials.empty()) {
    // Direct-array path: merge elementwise into partial 0, then emit the
    // slots that saw rows, ordered by first input row. (Code order is NOT
    // first-seen order in general — a derived table can hold a shared
    // dictionary's codes in any row order — so the sort applies even for a
    // single worker.)
    AggPartial& p0 = partials[0];
    for (size_t w = 1; w < partials.size(); ++w) {
      const AggPartial& pw = partials[w];
      for (size_t g = 0; g < direct_slots; ++g) {
        if (pw.first_row[g] == SIZE_MAX) continue;
        for (size_t a = 0; a < aggs.size(); ++a) {
          aggdetail::MergeState(p0.spec_states[a][g], pw.spec_states[a][g],
                                acc_plans[a].kind);
        }
        p0.first_row[g] = std::min(p0.first_row[g], pw.first_row[g]);
      }
    }
    std::vector<uint32_t> order;
    order.reserve(direct_slots);
    for (size_t g = 0; g < direct_slots; ++g) {
      if (p0.first_row[g] != SIZE_MAX) {
        order.push_back(static_cast<uint32_t>(g));
      }
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
  } else if (plan.num_workers <= 1 && !partials.empty()) {
    AggPartial& p = partials[0];
    states.reserve(p.groups.size());
    for (size_t g = 0; g < p.groups.size(); ++g) {
      states.push_back(aggdetail::GatherStates(p.spec_states, g));
    }
    representative_row = std::move(p.first_row);
  } else if (!partials.empty()) {
    struct MergedGroup {
      std::vector<AggState> states;
      size_t first_row;
    };
    const size_t num_parts = plan.num_workers;
    std::vector<std::vector<MergedGroup>> part_groups(num_parts);
    RunPartitions(num_parts, plan.num_workers, [&](size_t part) {
      KeyMap seen;
      std::vector<MergedGroup>& out = part_groups[part];
      for (const AggPartial& p : partials) {
        p.groups.ForEach([&](std::string_view key, size_t id) {
          if (KeyMap::Hash(key) % num_parts != part) return;
          auto [g, inserted] = seen.GetOrAdd(key);
          if (inserted) {
            out.push_back(
                {aggdetail::GatherStates(p.spec_states, id), p.first_row[id]});
          } else {
            MergeFromPartial(out[g].states, p, id, acc_plans);
            out[g].first_row = std::min(out[g].first_row, p.first_row[id]);
          }
        });
      }
    });
    std::vector<MergedGroup> merged;
    for (std::vector<MergedGroup>& pg : part_groups) {
      for (MergedGroup& mg : pg) merged.push_back(std::move(mg));
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

  if (op.active()) {
    if (direct_slots > 0) {
      // No hash table at all: the dictionary code indexed the accumulator
      // arrays directly. Report the array size as the "slots".
      op.SetHashTable(states.size(), direct_slots);
      op.SetDetail("keys=direct-dict(" + std::to_string(direct_slots - 1) +
                   ")");
    } else {
      // Peak hash-table shape across the workers' thread-local partials; the
      // merge touches every partial, so that count doubles as spill volume.
      size_t peak_groups = 0, peak_slots = 0;
      for (const AggPartial& p : partials) {
        if (p.groups.size() > peak_groups) {
          peak_groups = p.groups.size();
          peak_slots = p.groups.slots();
        }
      }
      op.SetHashTable(peak_groups, peak_slots);
      op.SetDetail("keys=packed(" + std::to_string(encoder.fixed_width()) +
                   "B)");
    }
    op.SetRows(n, states.size());
    op.SetMorsels(plan.num_morsels, ran);
    if (plan.num_workers > 1) op.SetPartialsMerged(partials.size());
  }

  return aggdetail::EmitAggOutput(input, group_idx, aggs, bind.out_types,
                                  states, representative_row);
}

}  // namespace pctagg
