#include "engine/table_ops.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "obs/trace.h"

namespace pctagg {

Result<Table> Project(const Table& input,
                      const std::vector<ProjectSpec>& specs) {
  Table out;
  for (const ProjectSpec& spec : specs) {
    PCTAGG_ASSIGN_OR_RETURN(DataType t, spec.expr->ResultType(input.schema()));
    PCTAGG_ASSIGN_OR_RETURN(Column c, spec.expr->Evaluate(input));
    PCTAGG_RETURN_IF_ERROR(out.AddColumn({spec.output_name, t}, std::move(c)));
  }
  return out;
}

Result<Table> Filter(const Table& input, const ExprPtr& predicate) {
  obs::OpScope op("filter");
  PCTAGG_ASSIGN_OR_RETURN(std::vector<uint8_t> keep,
                          predicate->KeepMask(input));
  Table out(input.schema());
  for (size_t row = 0; row < input.num_rows(); ++row) {
    if (keep[row] != 0) out.AppendRowFrom(input, row);
  }
  op.SetRows(input.num_rows(), out.num_rows());
  return out;
}

Result<Table> Distinct(const Table& input,
                       const std::vector<std::string>& columns) {
  std::vector<size_t> col_idx;
  Schema out_schema;
  for (const std::string& name : columns) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    col_idx.push_back(idx);
    out_schema.AddColumn(input.schema().column(idx));
  }
  Table out(out_schema);
  std::unordered_set<std::string> seen;
  std::string key;
  for (size_t row = 0; row < input.num_rows(); ++row) {
    key.clear();
    input.AppendKeyBytes(row, col_idx, &key);
    if (!seen.insert(key).second) continue;
    for (size_t c = 0; c < col_idx.size(); ++c) {
      out.mutable_column(c).AppendFrom(input.column(col_idx[c]), row);
    }
  }
  return out;
}

namespace {

// Three-way comparison of two non-NULL cells of one column: strings by
// bytes, INT64 exactly as int64 (a double cannot tell 2^53 from 2^53 + 1),
// FLOAT64 as doubles (NaN compares equal to every value).
int CompareCells(const Column& c, size_t a, size_t b) {
  switch (c.type()) {
    case DataType::kString:
      return c.StringAt(a).compare(c.StringAt(b));
    case DataType::kInt64: {
      const int64_t x = c.Int64At(a);
      const int64_t y = c.Int64At(b);
      return (x > y) - (x < y);
    }
    case DataType::kFloat64:
      break;
  }
  const double x = c.Float64At(a);
  const double y = c.Float64At(b);
  return x < y ? -1 : (x > y ? 1 : 0);
}

// The stable row order of `input` under `keys`, the one comparator behind
// both SortPermutation and SortBy: NULLs first ascending, last descending.
Result<std::vector<size_t>> SortOrder(const Table& input,
                                      const std::vector<SortKey>& keys) {
  std::vector<size_t> col_idx;
  for (const SortKey& k : keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(k.column));
    col_idx.push_back(idx);
  }
  std::vector<size_t> order(input.num_rows());
  std::iota(order.begin(), order.end(), 0);
  auto less_at = [&](size_t a, size_t b) {
    for (size_t k = 0; k < col_idx.size(); ++k) {
      const Column& c = input.column(col_idx[k]);
      const bool an = c.IsNull(a);
      const bool bn = c.IsNull(b);
      if (an || bn) {
        if (an && bn) continue;
        return keys[k].descending ? bn : an;
      }
      const int cmp = CompareCells(c, a, b);
      if (cmp != 0) return keys[k].descending ? cmp > 0 : cmp < 0;
    }
    return false;
  };
  std::stable_sort(order.begin(), order.end(), less_at);
  return order;
}

}  // namespace

Result<std::vector<size_t>> SortPermutation(
    const Table& input, const std::vector<std::string>& columns) {
  std::vector<SortKey> keys;
  for (const std::string& name : columns) keys.push_back({name, false});
  return SortOrder(input, keys);
}

Result<Table> Sort(const Table& input,
                   const std::vector<std::string>& columns) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<size_t> order,
                          SortPermutation(input, columns));
  Table out(input.schema());
  out.Reserve(input.num_rows());
  for (size_t row : order) out.AppendRowFrom(input, row);
  return out;
}

Result<Table> SortBy(const Table& input, const std::vector<SortKey>& keys) {
  PCTAGG_ASSIGN_OR_RETURN(std::vector<size_t> order, SortOrder(input, keys));
  Table out(input.schema());
  out.Reserve(input.num_rows());
  for (size_t row : order) out.AppendRowFrom(input, row);
  return out;
}

Table Limit(const Table& input, size_t limit) {
  if (limit >= input.num_rows()) return input;
  Table out(input.schema());
  out.Reserve(limit);
  for (size_t row = 0; row < limit; ++row) out.AppendRowFrom(input, row);
  return out;
}

Status InsertInto(Table* dst, const Table& src) {
  if (dst->num_columns() != src.num_columns()) {
    return Status::InvalidArgument("INSERT arity mismatch");
  }
  for (size_t i = 0; i < dst->num_columns(); ++i) {
    if (dst->schema().column(i).type != src.schema().column(i).type) {
      return Status::TypeMismatch("INSERT column type mismatch at position " +
                                  std::to_string(i));
    }
  }
  // Column-at-a-time bulk append: one vector insert per numeric column, one
  // per-distinct-code dictionary translation per string column (see
  // Column::AppendAllFrom), instead of a per-row per-column variant visit.
  for (size_t i = 0; i < dst->num_columns(); ++i) {
    dst->mutable_column(i).AppendAllFrom(src.column(i));
  }
  return Status::OK();
}

}  // namespace pctagg
