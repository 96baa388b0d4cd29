#include "engine/window.h"

#include "engine/agg_internal.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "obs/trace.h"

namespace pctagg {

using aggdetail::AggState;

Result<Column> WindowAggregate(const Table& input,
                               const std::vector<std::string>& partition_by,
                               AggFunc func, const ExprPtr& arg) {
  obs::OpScope op("window");
  std::vector<size_t> part_idx;
  for (const std::string& name : partition_by) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    part_idx.push_back(idx);
  }
  if (func != AggFunc::kCountStar && arg == nullptr) {
    return Status::InvalidArgument("window aggregate requires an argument");
  }

  Column in(DataType::kFloat64);
  if (func != AggFunc::kCountStar) {
    PCTAGG_ASSIGN_OR_RETURN(DataType in_type, arg->ResultType(input.schema()));
    if (in_type == DataType::kString && func != AggFunc::kCount) {
      return Status::TypeMismatch(
          "window aggregates over string columns support only count()");
    }
    PCTAGG_ASSIGN_OR_RETURN(in, arg->Evaluate(input));
  }
  const aggdetail::AccPlan ap = aggdetail::MakeAccPlan(func, in);

  // Pass 1: morsel-parallel accumulation into thread-local partition tables.
  // Instead of materializing one key string per input row (the seed kept n
  // std::strings alive just to re-probe in pass 2), each worker records a
  // dense local partition id per row; after the merge those remap to global
  // ids with one table lookup per (worker, local id).
  const size_t n = input.num_rows();
  MorselPlan plan = MorselPlan::For(n, CurrentDop());
  const KeyEncoder encoder(input, part_idx);
  struct WinPartial {
    KeyMap parts;
    std::vector<AggState> states;
    std::vector<size_t> first_row;  // batch-keying bookkeeping (unused here)
    std::vector<char> key_buf;      // morsel scratch: fixed-stride packed keys
  };
  std::vector<WinPartial> partials(plan.num_workers);
  std::vector<uint32_t> row_local(n);
  std::vector<uint32_t> morsel_owner(plan.num_morsels, 0);
  size_t ran = RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    WinPartial& p = partials[worker];
    if (plan.morsel_rows > 0 && begin < n) {
      morsel_owner[begin / plan.morsel_rows] = static_cast<uint32_t>(worker);
    }
    // Batch keying (all key types are fixed width): encode the morsel's keys
    // column-at-a-time, assign local partition ids straight into row_local.
    const size_t count = end - begin;
    const size_t stride = encoder.fixed_width();
    // +1 keeps key_buf.data() non-null even for an empty (0-width) key set.
    if (p.key_buf.size() < count * stride + 1) {
      p.key_buf.resize(count * stride + 1);
    }
    encoder.EncodeFixedBatch(begin, end, p.key_buf.data());
    p.parts.GetOrAddFixedBatch(p.key_buf.data(), stride, count, begin,
                               row_local.data() + begin, &p.first_row);
    if (p.states.size() < p.parts.size()) p.states.resize(p.parts.size());
    aggdetail::Accumulate(ap, row_local.data() + begin, nullptr, begin, count,
                          p.states.data());
  });

  // Merge partials into global partition states, and remap each worker's
  // local ids to global ids.
  std::vector<AggState> global_states;
  std::vector<std::vector<uint32_t>> remap(partials.size());
  {
    KeyMap global;
    for (size_t pi = 0; pi < partials.size(); ++pi) {
      const WinPartial& p = partials[pi];
      remap[pi].resize(p.parts.size());
      p.parts.ForEach([&](std::string_view key, size_t id) {
        auto [gid, inserted] = global.GetOrAdd(key);
        if (inserted) {
          global_states.push_back(p.states[id]);
        } else {
          aggdetail::MergeState(global_states[gid], p.states[id], ap);
        }
        remap[pi][id] = static_cast<uint32_t>(gid);
      });
    }
  }
  if (op.active()) {
    size_t peak_parts = 0, peak_slots = 0;
    for (const WinPartial& p : partials) {
      if (p.parts.size() > peak_parts) {
        peak_parts = p.parts.size();
        peak_slots = p.parts.slots();
      }
    }
    op.SetRows(n, n);
    op.SetMorsels(plan.num_morsels, ran);
    op.SetHashTable(peak_parts, peak_slots);
    if (plan.num_workers > 1) op.SetPartialsMerged(partials.size());
    op.SetDetail("partitions=" + std::to_string(global_states.size()));
  }
  // Pass 2: finalize each partition once, then emit its value on every one
  // of its rows.
  Column values(aggdetail::StateType(ap.kind));
  values.Reserve(global_states.size());
  for (const AggState& st : global_states) {
    PCTAGG_RETURN_IF_ERROR(values.AppendValue(aggdetail::StateValue(st, ap)));
  }
  Column out(values.type());
  out.Reserve(n);
  for (size_t m = 0; m < plan.num_morsels; ++m) {
    const std::vector<uint32_t>& r = remap[morsel_owner[m]];
    const size_t end = plan.End(m);
    for (size_t row = plan.Begin(m); row < end; ++row) {
      out.AppendFrom(values, r[row_local[row]]);
    }
  }
  return out;
}

}  // namespace pctagg
