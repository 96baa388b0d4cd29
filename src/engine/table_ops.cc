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

Result<std::vector<size_t>> SortPermutation(
    const Table& input, const std::vector<std::string>& columns) {
  std::vector<size_t> col_idx;
  for (const std::string& name : columns) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(name));
    col_idx.push_back(idx);
  }
  std::vector<size_t> order(input.num_rows());
  std::iota(order.begin(), order.end(), 0);
  auto less_at = [&](size_t a, size_t b) {
    for (size_t ci : col_idx) {
      const Column& c = input.column(ci);
      bool an = c.IsNull(a);
      bool bn = c.IsNull(b);
      if (an || bn) {
        if (an && bn) continue;
        return an;  // NULLs first
      }
      int cmp = 0;
      if (c.type() == DataType::kString) {
        cmp = c.StringAt(a).compare(c.StringAt(b));
      } else {
        double x = c.NumericAt(a);
        double y = c.NumericAt(b);
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  std::stable_sort(order.begin(), order.end(), less_at);
  return order;
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
  std::vector<size_t> col_idx;
  std::vector<bool> desc;
  for (const SortKey& k : keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, input.schema().FindColumn(k.column));
    col_idx.push_back(idx);
    desc.push_back(k.descending);
  }
  std::vector<size_t> order(input.num_rows());
  std::iota(order.begin(), order.end(), 0);
  auto less_at = [&](size_t a, size_t b) {
    for (size_t k = 0; k < col_idx.size(); ++k) {
      const Column& c = input.column(col_idx[k]);
      bool an = c.IsNull(a);
      bool bn = c.IsNull(b);
      if (an || bn) {
        if (an && bn) continue;
        // NULLs first ascending, last descending.
        return desc[k] ? bn : an;
      }
      int cmp = 0;
      if (c.type() == DataType::kString) {
        cmp = c.StringAt(a).compare(c.StringAt(b));
      } else {
        double x = c.NumericAt(a);
        double y = c.NumericAt(b);
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      if (cmp != 0) return desc[k] ? cmp > 0 : cmp < 0;
    }
    return false;
  };
  std::stable_sort(order.begin(), order.end(), less_at);
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
