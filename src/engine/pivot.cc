#include "engine/pivot.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"
#include "engine/agg_internal.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "engine/table_ops.h"
#include "obs/trace.h"

namespace pctagg {

namespace {

using aggdetail::AccPlan;
using aggdetail::AggState;

// One worker's thread-local dispatch state: its own group map, combo map,
// cell matrix and group totals over the morsels it claimed.
struct PivotPartial {
  KeyMap groups;
  KeyMap combos;
  std::vector<size_t> group_first;  // min input row per local group
  std::vector<size_t> combo_first;  // min input row per local combo
  std::vector<std::vector<AggState>> cells;  // [local group][local combo]
  std::vector<AggState> group_total;
  std::vector<uint32_t> gid;      // morsel scratch: local group id per row
  std::vector<uint32_t> cid;      // morsel scratch: local combo id per row
  std::vector<char> key_buf;      // morsel scratch: fixed-stride packed keys
};

}  // namespace

std::string PivotColumnName(const Table& combos, size_t row) {
  std::vector<std::string> parts;
  parts.reserve(combos.num_columns());
  for (size_t c = 0; c < combos.num_columns(); ++c) {
    const Column& col = combos.column(c);
    std::string v;
    if (col.IsNull(row)) {
      v = "NULL";
    } else if (col.type() == DataType::kString) {
      v = col.StringAt(row);
    } else {
      v = col.GetValue(row).ToString();
    }
    parts.push_back(combos.schema().column(c).name + "=" + v);
  }
  return Join(parts, ",");
}

Result<Table> HashDispatchPivot(const Table& input,
                                const std::vector<std::string>& group_by,
                                const std::vector<std::string>& pivot_by,
                                const ExprPtr& value_expr,
                                const PivotOptions& options, size_t dop) {
  obs::OpScope op("pivot");
  if (pivot_by.empty()) {
    return Status::InvalidArgument("pivot requires at least one BY column");
  }
  std::vector<size_t> group_idx;
  for (const std::string& name : group_by) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    group_idx.push_back(idx);
  }
  std::vector<size_t> pivot_idx;
  for (const std::string& name : pivot_by) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    pivot_idx.push_back(idx);
  }
  if (value_expr == nullptr && options.func != AggFunc::kCountStar) {
    return Status::InvalidArgument("pivot aggregate requires a value expression");
  }

  Column vals(DataType::kFloat64);
  if (options.func != AggFunc::kCountStar) {
    PCTAGG_ASSIGN_OR_RETURN(DataType val_type,
                            value_expr->ResultType(input.schema()));
    if (val_type == DataType::kString) {
      return Status::TypeMismatch("pivot aggregates require a numeric measure");
    }
    PCTAGG_ASSIGN_OR_RETURN(vals, value_expr->Evaluate(input));
  }
  // A percentage cell is its sum over the group total's sum.
  const bool percent = options.percent_of_group_total;
  const AccPlan ap =
      aggdetail::MakeAccPlan(percent ? AggFunc::kSum : options.func, vals);

  // Phase 1: each worker runs the O(1) hash dispatch over its morsels into a
  // thread-local PivotPartial — two probes per row (group map, combo map),
  // packed binary keys, find-before-insert.
  const size_t n = input.num_rows();
  if (dop == 0) dop = CurrentDop();
  MorselPlan plan = MorselPlan::For(n, dop);
  const KeyEncoder group_encoder(input, group_idx);
  const KeyEncoder pivot_encoder(input, pivot_idx);
  std::vector<PivotPartial> partials(plan.num_workers);
  size_t ran = RunMorsels(plan, [&](size_t worker, size_t begin, size_t end) {
    PivotPartial& p = partials[worker];
    // Batch keying: every key is fixed width (dictionary codes made string
    // columns fixed too), so both key sets for the whole morsel are encoded
    // column-at-a-time and probed through the stride-specialized batch path.
    const size_t count = end - begin;
    const size_t gstride = group_encoder.fixed_width();
    const size_t pstride = pivot_encoder.fixed_width();
    if (p.gid.size() < count) {
      p.gid.resize(count);
      p.cid.resize(count);
    }
    // +1 keeps key_buf.data() non-null even for an empty (0-width) key set.
    const size_t buf_need = count * std::max(gstride, pstride) + 1;
    if (p.key_buf.size() < buf_need) p.key_buf.resize(buf_need);
    group_encoder.EncodeFixedBatch(begin, end, p.key_buf.data());
    p.groups.GetOrAddFixedBatch(p.key_buf.data(), gstride, count, begin,
                                p.gid.data(), &p.group_first);
    while (p.cells.size() < p.groups.size()) {
      p.cells.emplace_back();
      p.group_total.emplace_back();
    }
    pivot_encoder.EncodeFixedBatch(begin, end, p.key_buf.data());
    p.combos.GetOrAddFixedBatch(p.key_buf.data(), pstride, count, begin,
                                p.cid.data(), &p.combo_first);
    // Every row marks its cell present (row_count); a non-NULL measure also
    // folds into the cell and, for percentages, into the group total.
    aggdetail::WithKind(ap.kind, [&](auto k) {
      constexpr aggdetail::AccKind K = decltype(k)::value;
      for (size_t row = begin; row < end; ++row) {
        const uint32_t g = p.gid[row - begin];
        const uint32_t c = p.cid[row - begin];
        if (p.cells[g].size() <= c) p.cells[g].resize(c + 1);
        AggState& st = p.cells[g][c];
        st.row_count++;
        if (K == aggdetail::AccKind::kCountStar || !ap.validity[row]) continue;
        aggdetail::Fold<K>(ap, st, row);
        if (percent) aggdetail::Fold<K>(ap, p.group_total[g], row);
      }
    });
  });

  // Phase 2: merge the partials. Combos are unified serially (their count is
  // the result's column count — small); groups are merged across hash
  // partitions in parallel. Both are then ordered by first input row, which
  // reproduces exactly the first-seen ids a serial run assigns.
  std::vector<size_t> group_rep_row;
  std::vector<size_t> combo_rep_row;
  std::vector<std::vector<AggState>> cells;  // [group][global combo]
  std::vector<AggState> group_total;
  if (plan.num_workers <= 1) {
    PivotPartial& p = partials[0];
    group_rep_row = std::move(p.group_first);
    combo_rep_row = std::move(p.combo_first);
    cells = std::move(p.cells);
    group_total = std::move(p.group_total);
  } else {
    // Unify combos and compute, per partial, local combo id -> global id.
    KeyMap global_combos;
    std::vector<size_t> combo_min_row;
    std::vector<std::vector<size_t>> combo_remap(partials.size());
    for (size_t pi = 0; pi < partials.size(); ++pi) {
      const PivotPartial& p = partials[pi];
      combo_remap[pi].resize(p.combos.size());
      p.combos.ForEach([&](std::string_view key, size_t id) {
        auto [gid, inserted] = global_combos.GetOrAdd(key);
        if (inserted) {
          combo_min_row.push_back(p.combo_first[id]);
        } else {
          combo_min_row[gid] = std::min(combo_min_row[gid], p.combo_first[id]);
        }
        combo_remap[pi][id] = gid;
      });
    }
    // Renumber combos into first-seen order.
    std::vector<size_t> order(combo_min_row.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return combo_min_row[a] < combo_min_row[b];
    });
    std::vector<size_t> final_id(order.size());
    combo_rep_row.resize(order.size());
    for (size_t rank = 0; rank < order.size(); ++rank) {
      final_id[order[rank]] = rank;
      combo_rep_row[rank] = combo_min_row[order[rank]];
    }
    for (std::vector<size_t>& remap : combo_remap) {
      for (size_t& id : remap) id = final_id[id];
    }

    // Partitioned group merge.
    struct MergedGroup {
      std::vector<AggState> cells;
      AggState total;
      size_t first_row;
    };
    const size_t num_parts = plan.num_workers;
    std::vector<std::vector<MergedGroup>> part_groups(num_parts);
    RunPartitions(num_parts, plan.num_workers, [&](size_t part) {
      KeyMap seen;
      std::vector<MergedGroup>& out = part_groups[part];
      for (size_t pi = 0; pi < partials.size(); ++pi) {
        const PivotPartial& p = partials[pi];
        p.groups.ForEach([&](std::string_view key, size_t id) {
          if (KeyMap::Hash(key) % num_parts != part) return;
          auto [g, inserted] = seen.GetOrAdd(key);
          if (inserted) {
            out.push_back({{}, p.group_total[id], p.group_first[id]});
            out.back().cells.resize(combo_rep_row.size());
          } else {
            aggdetail::MergeState(out[g].total, p.group_total[id], ap);
            out[g].first_row = std::min(out[g].first_row, p.group_first[id]);
          }
          std::vector<AggState>& dst = out[g].cells;
          const std::vector<AggState>& src = p.cells[id];
          for (size_t c = 0; c < src.size(); ++c) {
            if (src[c].row_count > 0) {
              aggdetail::MergeState(dst[combo_remap[pi][c]], src[c], ap);
            }
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
    for (MergedGroup& mg : merged) {
      group_rep_row.push_back(mg.first_row);
      cells.push_back(std::move(mg.cells));
      group_total.push_back(mg.total);
    }
  }

  const size_t num_groups = cells.size();
  const size_t num_combos = combo_rep_row.size();

  if (op.active()) {
    size_t peak_groups = 0, peak_slots = 0;
    for (const PivotPartial& p : partials) {
      if (p.groups.size() > peak_groups) {
        peak_groups = p.groups.size();
        peak_slots = p.groups.slots();
      }
    }
    op.SetRows(n, num_groups);
    op.SetMorsels(plan.num_morsels, ran);
    op.SetHashTable(peak_groups, peak_slots);
    if (plan.num_workers > 1) op.SetPartialsMerged(partials.size());
    op.SetDetail("combos=" + std::to_string(num_combos));
  }

  // Result-column names come from the distinct pivot combinations in
  // first-seen order; build a small table of them to share naming with the
  // CASE strategies.
  Schema combo_schema;
  for (size_t pi : pivot_idx) combo_schema.AddColumn(input.schema().column(pi));
  Table combos(combo_schema);
  for (size_t c = 0; c < num_combos; ++c) {
    size_t row = combo_rep_row[c];
    for (size_t k = 0; k < pivot_idx.size(); ++k) {
      combos.mutable_column(k).AppendFrom(input.column(pivot_idx[k]), row);
    }
  }

  const DataType cell_type =
      percent ? DataType::kFloat64 : aggdetail::StateType(ap.kind);

  // Emit cell columns in sorted combination order so results render (and
  // compare) deterministically regardless of row arrival order.
  std::vector<std::string> combo_cols;
  for (size_t c = 0; c < combos.num_columns(); ++c) {
    combo_cols.push_back(combos.schema().column(c).name);
  }
  PCTAGG_ASSIGN_OR_RETURN(std::vector<size_t> combo_order,
                          SortPermutation(combos, combo_cols));

  Schema out_schema;
  for (size_t gi : group_idx) out_schema.AddColumn(input.schema().column(gi));
  for (size_t c = 0; c < num_combos; ++c) {
    out_schema.AddColumn({PivotColumnName(combos, combo_order[c]), cell_type});
  }
  Table out(out_schema);
  out.Reserve(num_groups);

  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<Value> row;
    row.reserve(group_idx.size() + num_combos);
    for (size_t gi : group_idx) {
      row.push_back(input.column(gi).GetValue(group_rep_row[g]));
    }
    const Value total =
        percent ? aggdetail::StateValue(group_total[g], ap) : Value::Null();
    const bool total_ok = !total.is_null() && total.AsDouble() != 0.0;
    for (size_t j = 0; j < num_combos; ++j) {
      size_t c = combo_order[j];
      const AggState st = c < cells[g].size() ? cells[g][c] : AggState{};
      const bool cell_present = st.row_count > 0;
      Value v;
      if (percent) {
        // Matches the generated SQL sum(CASE .. THEN A ELSE 0 END)/sum(A):
        // a combination with no rows (or only NULL measures) contributes 0%
        // (the paper's store-4-Monday example); a zero/NULL group total makes
        // every percentage NULL. INT64 sums divide as exact sums rounded
        // once, as that SQL does.
        if (!total_ok) {
          v = Value::Null();
        } else if (!cell_present || !st.saw_value) {
          v = Value::Float64(0.0);
        } else {
          const double sum = aggdetail::StateValue(st, ap).AsDouble();
          v = Value::Float64(sum / total.AsDouble());
        }
      } else {
        // A combination with no rows at all is NULL — even for counts — to
        // stay consistent with the SPJ strategy's outer joins (DMKD §3.4).
        v = cell_present ? aggdetail::StateValue(st, ap) : Value::Null();
        if (v.is_null() && options.default_zero) {
          v = cell_type == DataType::kInt64 ? Value::Int64(0)
                                            : Value::Float64(0.0);
        }
      }
      row.push_back(v);
    }
    PCTAGG_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace pctagg
