#include "engine/window.h"

#include <limits>

#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "obs/trace.h"

namespace pctagg {

namespace {

// INT64 inputs keep their extremes in imin/imax: through a double, max over
// {2^53, 2^53 + 1} was 2^53 and INT64_MAX came back as INT64_MIN.
struct PartState {
  double sum = 0.0;
  int64_t isum = 0;
  int64_t count = 0;
  int64_t rows = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  bool saw_value = false;
};

// INT64 sums wrap on overflow, as two's complement does, without a signed
// overflow's undefined behaviour.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

void MergePart(PartState& d, const PartState& s) {
  d.sum += s.sum;
  d.isum = WrapAdd(d.isum, s.isum);
  d.count += s.count;
  d.rows += s.rows;
  if (s.min < d.min) d.min = s.min;
  if (s.max > d.max) d.max = s.max;
  if (s.imin < d.imin) d.imin = s.imin;
  if (s.imax > d.imax) d.imax = s.imax;
  d.saw_value = d.saw_value || s.saw_value;
}

}  // namespace

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
  DataType in_type = DataType::kFloat64;
  if (func != AggFunc::kCountStar) {
    PCTAGG_ASSIGN_OR_RETURN(in_type, arg->ResultType(input.schema()));
    if (in_type == DataType::kString && func != AggFunc::kCount) {
      return Status::TypeMismatch(
          "window aggregates over string columns support only count()");
    }
    PCTAGG_ASSIGN_OR_RETURN(in, arg->Evaluate(input));
  }

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
    std::vector<PartState> states;
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
    for (size_t row = begin; row < end; ++row) {
      PartState& st = p.states[row_local[row]];
      st.rows++;
      if (func == AggFunc::kCountStar) continue;
      if (in.IsNull(row)) continue;
      st.count++;
      st.saw_value = true;
      if (in.type() == DataType::kInt64) {
        const int64_t v = in.Int64At(row);
        st.sum += static_cast<double>(v);
        st.isum = WrapAdd(st.isum, v);
        if (v < st.imin) st.imin = v;
        if (v > st.imax) st.imax = v;
      } else if (in.type() != DataType::kString) {
        const double v = in.NumericAt(row);
        st.sum += v;
        if (v < st.min) st.min = v;
        if (v > st.max) st.max = v;
      }
    }
  });

  // Merge partials into global partition states, and remap each worker's
  // local ids to global ids.
  std::vector<PartState> global_states;
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
          MergePart(global_states[gid], p.states[id]);
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
  std::vector<const PartState*> row_part(n, nullptr);
  for (size_t m = 0; m < plan.num_morsels; ++m) {
    const std::vector<uint32_t>& r = remap[morsel_owner[m]];
    const size_t end = plan.End(m);
    for (size_t row = plan.Begin(m); row < end; ++row) {
      row_part[row] = &global_states[r[row_local[row]]];
    }
  }

  // Output type mirrors HashAggregate.
  DataType out_type = DataType::kFloat64;
  if (func == AggFunc::kCount || func == AggFunc::kCountStar) {
    out_type = DataType::kInt64;
  } else if (func == AggFunc::kSum && in_type == DataType::kInt64) {
    out_type = DataType::kInt64;
  } else if ((func == AggFunc::kMin || func == AggFunc::kMax) &&
             in_type == DataType::kInt64) {
    out_type = DataType::kInt64;
  }

  // Pass 2: emit one value per input row.
  Column out(out_type);
  out.Reserve(n);
  for (size_t row = 0; row < n; ++row) {
    const PartState& st = *row_part[row];
    switch (func) {
      case AggFunc::kCountStar:
        out.AppendInt64(st.rows);
        break;
      case AggFunc::kCount:
        out.AppendInt64(st.count);
        break;
      case AggFunc::kSum:
        if (!st.saw_value) {
          out.AppendNull();
        } else if (out_type == DataType::kInt64) {
          out.AppendInt64(st.isum);
        } else {
          out.AppendFloat64(st.sum);
        }
        break;
      case AggFunc::kAvg:
        if (!st.saw_value) {
          out.AppendNull();
        } else {
          out.AppendFloat64(st.sum / static_cast<double>(st.count));
        }
        break;
      case AggFunc::kMin:
        if (!st.saw_value) {
          out.AppendNull();
        } else if (out_type == DataType::kInt64) {
          out.AppendInt64(st.imin);
        } else {
          out.AppendFloat64(st.min);
        }
        break;
      case AggFunc::kMax:
        if (!st.saw_value) {
          out.AppendNull();
        } else if (out_type == DataType::kInt64) {
          out.AppendInt64(st.imax);
        } else {
          out.AppendFloat64(st.max);
        }
        break;
    }
  }
  return out;
}

}  // namespace pctagg
