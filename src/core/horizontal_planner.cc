#include "core/horizontal_planner.h"

#include <utility>

#include "common/string_util.h"
#include "engine/aggregate.h"
#include "engine/join.h"
#include "engine/pivot.h"
#include "engine/table_ops.h"

namespace pctagg {

namespace {

// The aggregate evaluated against the fact table for one horizontal term.
Result<AggFunc> DirectFunc(const AnalyzedTerm& t) {
  switch (t.func) {
    case TermFunc::kHpct:
    case TermFunc::kSum:
      return AggFunc::kSum;
    case TermFunc::kCount:
      return AggFunc::kCount;
    case TermFunc::kCountStar:
      return AggFunc::kCountStar;
    case TermFunc::kAvg:
      return AggFunc::kAvg;
    case TermFunc::kMin:
      return AggFunc::kMin;
    case TermFunc::kMax:
      return AggFunc::kMax;
    default:
      return Status::Internal("not a horizontal term");
  }
}

// How per-(D1..Dk) partial aggregates in FV are combined into cells. Only
// distributive functions qualify (the reason avg has no from-FV strategy).
Result<AggFunc> CombineFunc(AggFunc direct) {
  switch (direct) {
    case AggFunc::kSum:
    case AggFunc::kCount:       // counts combine by summing
    case AggFunc::kCountStar:
      return AggFunc::kSum;
    case AggFunc::kMin:
      return AggFunc::kMin;
    case AggFunc::kMax:
      return AggFunc::kMax;
    case AggFunc::kAvg:
      return Status::InvalidArgument(
          "avg() is not distributive: use a direct (from F) strategy");
  }
  return Status::Internal("unknown aggregate");
}

// Equality conjunction matching one distinct BY combination; NULL dimension
// values match via IS NULL so every fact row lands in exactly one column.
ExprPtr ComboPredicate(const Table& combos, size_t row) {
  std::vector<ExprPtr> terms;
  for (size_t c = 0; c < combos.num_columns(); ++c) {
    const std::string& name = combos.schema().column(c).name;
    Value v = combos.column(c).GetValue(row);
    terms.push_back(v.is_null() ? IsNull(Col(name)) : Eq(Col(name), Lit(v)));
  }
  return AndAll(std::move(terms));
}

// Runtime parameters of one horizontal term's block computation.
struct BlockSpec {
  std::vector<std::string> group_by;
  std::vector<std::string> by_columns;
  ExprPtr value;  // null only for count(*)
  AggFunc func = AggFunc::kSum;
  bool percent = false;       // divide cells by the group total (Hpct direct)
  bool default_zero = false;  // coalesce NULL cells to 0
  // Hpct through FV: coalesce NULL cells to 0 only in rows that have a
  // percentage at all (see ZeroFillPercentRows).
  bool zero_fill_percent_rows = false;
  std::string cell_prefix;    // disambiguates cells across terms
  // avg() through FV is computed algebraically: cells combine partial sums
  // (`value`) and partial counts (`count_value`) and divide at the end.
  ExprPtr count_value;  // non-null enables the avg decomposition
};

// Hpct through FV (the transposed Vpct result): a combination absent from FV
// is 0% of its group, but a group whose total is zero or NULL has no
// percentage at all — every one of its FV cells is NULL — and stays NULL, as
// the direct strategies and Vpct leave it.
Status ZeroFillPercentRows(Table* block, size_t num_keys) {
  for (size_t r = 0; r < block->num_rows(); ++r) {
    bool any = false;
    for (size_t c = num_keys; c < block->num_columns() && !any; ++c) {
      any = !block->column(c).IsNull(r);
    }
    if (!any) continue;
    for (size_t c = num_keys; c < block->num_columns(); ++c) {
      if (!block->column(c).IsNull(r)) continue;
      PCTAGG_RETURN_IF_ERROR(
          block->mutable_column(c).SetValue(r, Value::Float64(0.0)));
    }
  }
  return Status::OK();
}

// Renames cell columns (everything after the group columns) with `prefix`.
Status PrefixCells(Table* block, size_t num_keys, const std::string& prefix) {
  if (prefix.empty()) return Status::OK();
  for (size_t c = num_keys; c < block->num_columns(); ++c) {
    PCTAGG_RETURN_IF_ERROR(
        block->RenameColumn(c, prefix + block->schema().column(c).name));
  }
  return Status::OK();
}

// CASE-strategy block: one GROUP BY pass over `source`, either via the
// hash-dispatch pivot operator or by literally evaluating the N generated
// CASE expressions (the unoptimized plan both papers measure).
Result<Table> ComputeCaseBlock(const Table& source, const BlockSpec& spec,
                               bool hash_dispatch) {
  if (hash_dispatch) {
    PivotOptions options;
    options.func = spec.func;
    options.default_zero = spec.default_zero;
    options.percent_of_group_total = spec.percent;
    PCTAGG_ASSIGN_OR_RETURN(
        Table block, HashDispatchPivot(source, spec.group_by, spec.by_columns,
                                       spec.value, options));
    PCTAGG_RETURN_IF_ERROR(
        PrefixCells(&block, spec.group_by.size(), spec.cell_prefix));
    return block;
  }

  // Naive O(N)-CASE evaluation of the same statement. Combinations are
  // sorted so the result columns line up with the hash-dispatch pivot.
  PCTAGG_ASSIGN_OR_RETURN(Table combos, Distinct(source, spec.by_columns));
  PCTAGG_ASSIGN_OR_RETURN(combos, Sort(combos, spec.by_columns));
  const size_t n_cells = combos.num_rows();
  std::vector<std::string> cell_names;
  cell_names.reserve(n_cells);
  for (size_t i = 0; i < n_cells; ++i) {
    cell_names.push_back(PivotColumnName(combos, i));
  }

  std::vector<AggSpec> aggs;
  for (size_t i = 0; i < n_cells; ++i) {
    ExprPtr pred = ComboPredicate(combos, i);
    ExprPtr cell_input;
    AggFunc cell_func = spec.func;
    if (spec.percent) {
      // sum(CASE WHEN <combo> THEN A ELSE 0 END)
      cell_input = CaseWhen({{pred, spec.value}}, Lit(Value::Int64(0)));
      cell_func = AggFunc::kSum;
    } else {
      switch (spec.func) {
        case AggFunc::kCountStar:
          // sum(CASE WHEN <combo> THEN 1 ELSE null END)
          cell_input = CaseWhen({{pred, Lit(Value::Int64(1))}}, nullptr);
          cell_func = AggFunc::kSum;
          break;
        case AggFunc::kCount:
          // sum(CASE WHEN <combo> THEN (arg non-null ? 1 : 0) ELSE null END)
          cell_input = CaseWhen(
              {{pred, CaseWhen({{Not(IsNull(spec.value)),
                                 Lit(Value::Int64(1))}},
                               Lit(Value::Int64(0)))}},
              nullptr);
          cell_func = AggFunc::kSum;
          break;
        default:
          // f(CASE WHEN <combo> THEN A ELSE null END)
          cell_input = CaseWhen({{pred, spec.value}}, nullptr);
          break;
      }
    }
    aggs.push_back({cell_func, cell_input, "__cell_" + std::to_string(i)});
  }
  if (spec.percent) {
    aggs.push_back({AggFunc::kSum, spec.value, "__total"});
  }
  PCTAGG_ASSIGN_OR_RETURN(Table agg,
                          HashAggregate(source, spec.group_by, aggs));

  // Post-projection: divisions for percent mode, DEFAULT-0 coalescing, and
  // the final cell names.
  std::vector<ProjectSpec> specs;
  for (size_t k = 0; k < spec.group_by.size(); ++k) {
    specs.push_back({Col(spec.group_by[k]), spec.group_by[k]});
  }
  for (size_t i = 0; i < n_cells; ++i) {
    ExprPtr cell = Col("__cell_" + std::to_string(i));
    if (spec.percent) {
      cell = Div(CaseWhen({{IsNull(cell), Lit(Value::Int64(0))}}, cell),
                 Col("__total"));
    }
    if (spec.default_zero) {
      cell = CaseWhen({{IsNull(cell), Lit(Value::Float64(0.0))}}, cell);
    }
    specs.push_back({cell, spec.cell_prefix + cell_names[i]});
  }
  return Project(agg, specs);
}

// SPJ-strategy block: one aggregate table per cell plus N left outer joins
// (DMKD Section 3.4), generalized with the group-total division for Hpct.
Result<Table> ComputeSpjBlock(const Table& source, const BlockSpec& spec) {
  PCTAGG_ASSIGN_OR_RETURN(Table combos, Distinct(source, spec.by_columns));
  PCTAGG_ASSIGN_OR_RETURN(combos, Sort(combos, spec.by_columns));
  const size_t n_cells = combos.num_rows();
  std::vector<std::string> cell_names;
  cell_names.reserve(n_cells);
  for (size_t i = 0; i < n_cells; ++i) {
    cell_names.push_back("__cell_" + std::to_string(i));
  }

  AggFunc cell_func = spec.percent ? AggFunc::kSum : spec.func;

  if (spec.group_by.empty()) {
    // Single result row: assemble the global aggregates column by column.
    Table block;
    for (size_t i = 0; i < n_cells; ++i) {
      PCTAGG_ASSIGN_OR_RETURN(Table filtered,
                              Filter(source, ComboPredicate(combos, i)));
      PCTAGG_ASSIGN_OR_RETURN(
          Table fi,
          HashAggregate(filtered, {}, {{cell_func, spec.value, cell_names[i]}}));
      PCTAGG_RETURN_IF_ERROR(block.AddColumn(fi.schema().column(0),
                                             fi.column(0)));
    }
    if (spec.percent) {
      PCTAGG_ASSIGN_OR_RETURN(
          Table tot,
          HashAggregate(source, {}, {{AggFunc::kSum, spec.value, "__total"}}));
      PCTAGG_RETURN_IF_ERROR(
          block.AddColumn(tot.schema().column(0), tot.column(0)));
    }
    // Fall through to the shared projection below via a rename pass.
    std::vector<ProjectSpec> specs;
    for (size_t i = 0; i < n_cells; ++i) {
      ExprPtr cell = Col(cell_names[i]);
      if (spec.percent) {
        cell = Div(CaseWhen({{IsNull(cell), Lit(Value::Int64(0))}}, cell),
                   Col("__total"));
      }
      if (spec.default_zero) {
        cell = CaseWhen({{IsNull(cell), Lit(Value::Float64(0.0))}}, cell);
      }
      specs.push_back({cell, spec.cell_prefix + PivotColumnName(combos, i)});
    }
    return Project(block, specs);
  }

  // F0 defines the result rows; for Hpct it also carries the group totals.
  Table current;
  if (spec.percent) {
    PCTAGG_ASSIGN_OR_RETURN(
        current, HashAggregate(source, spec.group_by,
                               {{AggFunc::kSum, spec.value, "__total"}}));
  } else {
    PCTAGG_ASSIGN_OR_RETURN(current, Distinct(source, spec.group_by));
  }

  for (size_t i = 0; i < n_cells; ++i) {
    PCTAGG_ASSIGN_OR_RETURN(Table filtered,
                            Filter(source, ComboPredicate(combos, i)));
    PCTAGG_ASSIGN_OR_RETURN(
        Table fi, HashAggregate(filtered, spec.group_by,
                                {{cell_func, spec.value, cell_names[i]}}));
    std::vector<JoinOutput> outputs;
    for (size_t c = 0; c < current.num_columns(); ++c) {
      outputs.push_back(JoinOutput::Left(current.schema().column(c).name));
    }
    outputs.push_back(JoinOutput::Right(cell_names[i]));
    PCTAGG_ASSIGN_OR_RETURN(
        current, HashJoin(current, fi, spec.group_by, spec.group_by,
                          JoinKind::kLeftOuter, outputs, nullptr,
                          /*null_safe=*/true));
  }

  std::vector<ProjectSpec> specs;
  for (const std::string& g : spec.group_by) specs.push_back({Col(g), g});
  for (size_t i = 0; i < n_cells; ++i) {
    ExprPtr cell = Col(cell_names[i]);
    if (spec.percent) {
      cell = Div(CaseWhen({{IsNull(cell), Lit(Value::Int64(0))}}, cell),
                 Col("__total"));
    }
    if (spec.default_zero) {
      cell = CaseWhen({{IsNull(cell), Lit(Value::Float64(0.0))}}, cell);
    }
    specs.push_back({cell, spec.cell_prefix + PivotColumnName(combos, i)});
  }
  return Project(current, specs);
}

// avg-through-FV: cells = (pivot of partial sums) / (pivot of partial
// counts), paired positionally — both pivots see the same input, so groups
// and combination columns line up exactly.
Result<Table> ComputeAvgRatioBlock(const Table& source, const BlockSpec& spec,
                                   bool spj, bool hash_dispatch) {
  BlockSpec sums = spec;
  sums.count_value = nullptr;
  sums.cell_prefix.clear();
  BlockSpec counts = sums;
  counts.value = spec.count_value;
  PCTAGG_ASSIGN_OR_RETURN(
      Table sum_block, spj ? ComputeSpjBlock(source, sums)
                           : ComputeCaseBlock(source, sums, hash_dispatch));
  PCTAGG_ASSIGN_OR_RETURN(
      Table cnt_block, spj ? ComputeSpjBlock(source, counts)
                           : ComputeCaseBlock(source, counts, hash_dispatch));
  if (sum_block.num_rows() != cnt_block.num_rows() ||
      sum_block.num_columns() != cnt_block.num_columns()) {
    return Status::Internal("avg decomposition blocks disagree");
  }
  Table out;
  const size_t keys = spec.group_by.size();
  for (size_t c = 0; c < keys; ++c) {
    PCTAGG_RETURN_IF_ERROR(
        out.AddColumn(sum_block.schema().column(c), sum_block.column(c)));
  }
  for (size_t c = keys; c < sum_block.num_columns(); ++c) {
    const Column& s = sum_block.column(c);
    const Column& n = cnt_block.column(c);
    Column cell(DataType::kFloat64);
    cell.Reserve(sum_block.num_rows());
    for (size_t i = 0; i < sum_block.num_rows(); ++i) {
      if (s.IsNull(i) || n.IsNull(i) || n.NumericAt(i) == 0.0) {
        cell.AppendNull();
      } else {
        cell.AppendFloat64(s.NumericAt(i) / n.NumericAt(i));
      }
    }
    PCTAGG_RETURN_IF_ERROR(out.AddColumn(
        {spec.cell_prefix + sum_block.schema().column(c).name,
         DataType::kFloat64},
        std::move(cell)));
  }
  if (spec.default_zero) {
    for (size_t c = keys; c < out.num_columns(); ++c) {
      Column& cell = out.mutable_column(c);
      for (size_t i = 0; i < cell.size(); ++i) {
        if (cell.IsNull(i)) {
          PCTAGG_RETURN_IF_ERROR(cell.SetValue(i, Value::Float64(0.0)));
        }
      }
    }
  }
  return out;
}

// SQL text of the canonical CASE statement for one term (for plan output).
// `value_sql` is what the pivot actually aggregates: the term argument when
// reading F directly, or the FV column (__pv / __v) in indirect strategies.
std::string RenderCaseSql(const std::string& dest, const std::string& src,
                          const AnalyzedTerm& t, const std::string& value_sql,
                          const std::vector<std::string>& group_by,
                          bool percent) {
  std::string cell = "sum(CASE WHEN " + Join(t.by_columns, ",") +
                     " = v_1..v_N THEN " + value_sql +
                     (percent ? " ELSE 0 END) / sum(" + value_sql + ")"
                              : " ELSE NULL END)");
  std::string sql = "INSERT INTO " + dest + " SELECT " +
                    (group_by.empty() ? "" : Join(group_by, ", ") + ", ") +
                    cell + ", ...xN FROM " + src;
  if (!group_by.empty()) sql += " GROUP BY " + Join(group_by, ", ");
  return sql;
}

}  // namespace

const char* HorizontalMethodName(HorizontalMethod method) {
  switch (method) {
    case HorizontalMethod::kCaseDirect:
      return "CASE-from-F";
    case HorizontalMethod::kCaseFromFV:
      return "CASE-from-FV";
    case HorizontalMethod::kSpjDirect:
      return "SPJ-from-F";
    case HorizontalMethod::kSpjFromFV:
      return "SPJ-from-FV";
  }
  return "?";
}

Result<Plan> PlanHorizontalQuery(const AnalyzedQuery& query,
                                 const HorizontalStrategy& strategy) {
  if (query.query_class != QueryClass::kHorizontal) {
    return Status::InvalidArgument(
        "PlanHorizontalQuery requires a horizontal query");
  }
  const bool from_fv = strategy.method == HorizontalMethod::kCaseFromFV ||
                       strategy.method == HorizontalMethod::kSpjFromFV;
  const bool spj = strategy.method == HorizontalMethod::kSpjDirect ||
                   strategy.method == HorizontalMethod::kSpjFromFV;

  Plan plan;
  std::string source = query.table_name;
  if (query.where != nullptr) {
    std::string fw = NewTempName("Fw");
    ExprPtr where = query.where;
    plan.AddStep("INSERT INTO " + fw + " SELECT * FROM " + source + " WHERE " +
                     where->ToString(),
                 [src = source, fw, where](ExecContext* ctx) -> Status {
                   PCTAGG_ASSIGN_OR_RETURN(const Table* input,
                                           ctx->catalog->GetTable(src));
                   PCTAGG_ASSIGN_OR_RETURN(Table out, Filter(*input, where));
                   ctx->catalog->CreateOrReplaceTable(fw, std::move(out));
                   return Status::OK();
                 });
    plan.AddTempTable(fw);
    source = fw;
  }

  // Separate horizontal terms from the extra vertical aggregates.
  std::vector<const AnalyzedTerm*> horizontal_terms;
  std::vector<AggSpec> extra_aggs;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func == TermFunc::kScalar) continue;
    if (t.has_by) {
      horizontal_terms.push_back(&t);
    } else {
      PCTAGG_ASSIGN_OR_RETURN(AggFunc func, DirectFunc(t));
      if (t.distinct) {
        return Status::InvalidArgument(
            "count(DISTINCT ...) without BY is not supported here");
      }
      extra_aggs.push_back({func, t.argument, t.output_name});
    }
  }
  // Cell names only need disambiguation when two horizontal terms could
  // produce the same combination columns.
  const bool multi_horizontal = horizontal_terms.size() > 1;

  // One block per horizontal term.
  std::vector<std::string> block_names;
  for (size_t ti = 0; ti < horizontal_terms.size(); ++ti) {
    const AnalyzedTerm& t = *horizontal_terms[ti];
    PCTAGG_ASSIGN_OR_RETURN(AggFunc direct_func, DirectFunc(t));
    const bool is_pct = t.func == TermFunc::kHpct;

    BlockSpec spec;
    spec.group_by = query.group_by;
    spec.by_columns = t.by_columns;
    spec.default_zero = t.has_default;  // DEFAULT only ever written as 0
    spec.cell_prefix = multi_horizontal ? t.output_name + "." : "";

    std::string block_source = source;
    if (t.distinct) {
      // count(DISTINCT A BY ...): pre-project the distinct tuples, then a
      // plain per-cell count over them. Direct strategies only.
      if (from_fv) {
        return Status::InvalidArgument(
            "count(DISTINCT ...) requires a direct (from F) strategy");
      }
      std::string arg = t.argument->ToString();
      if (!query.schema.HasColumn(arg)) {
        return Status::InvalidArgument(
            "count(DISTINCT ...) requires a plain column argument");
      }
      std::string fd = NewTempName("Fd");
      std::vector<std::string> cols = query.group_by;
      cols.insert(cols.end(), t.by_columns.begin(), t.by_columns.end());
      cols.push_back(arg);
      plan.AddStep(
          "INSERT INTO " + fd + " SELECT DISTINCT " + Join(cols, ", ") +
              " FROM " + block_source,
          [src = block_source, fd, cols](ExecContext* ctx) -> Status {
            PCTAGG_ASSIGN_OR_RETURN(const Table* input,
                                    ctx->catalog->GetTable(src));
            PCTAGG_ASSIGN_OR_RETURN(Table out, Distinct(*input, cols));
            ctx->catalog->CreateOrReplaceTable(fd, std::move(out));
            return Status::OK();
          });
      plan.AddTempTable(fd);
      block_source = fd;
      spec.func = AggFunc::kCount;
      spec.value = Col(arg);
      spec.percent = false;
    } else if (from_fv) {
      if (is_pct) {
        // FV = the full vertical-percentage result, then transpose it.
        AnalyzedQuery sub;
        sub.table_name = block_source;
        sub.schema = query.schema;
        sub.query_class = QueryClass::kVpct;
        sub.has_group_by = true;
        sub.group_by = query.group_by;
        sub.group_by.insert(sub.group_by.end(), t.by_columns.begin(),
                            t.by_columns.end());
        for (const std::string& g : sub.group_by) {
          AnalyzedTerm sterm;
          sterm.func = TermFunc::kScalar;
          sterm.argument = Col(g);
          sterm.scalar_column = g;
          sterm.output_name = g;
          sub.terms.push_back(std::move(sterm));
        }
        AnalyzedTerm vterm;
        vterm.func = TermFunc::kVpct;
        vterm.argument = t.argument;
        vterm.has_by = true;
        vterm.by_columns = t.by_columns;
        vterm.totals_by = query.group_by;
        vterm.output_name = "__pv";
        sub.terms.push_back(std::move(vterm));
        PCTAGG_ASSIGN_OR_RETURN(Plan sub_plan,
                                PlanVpctQuery(sub, strategy.vpct));
        std::string fv = plan.AppendPlan(std::move(sub_plan));
        block_source = fv;
        spec.func = AggFunc::kSum;
        spec.value = Col("__pv");
        spec.percent = false;
        spec.zero_fill_percent_rows = true;  // absent combinations are 0%
      } else if (direct_func == AggFunc::kAvg) {
        // avg() is algebraic, not distributive: FV carries the (sum, count)
        // pair and the cells divide the re-aggregated partials.
        std::string fv = NewTempName("FVh");
        std::vector<std::string> fv_group = query.group_by;
        fv_group.insert(fv_group.end(), t.by_columns.begin(),
                        t.by_columns.end());
        // The (sum, count) decomposition is distributive, so when FVh comes
        // straight off the base table the shared cacheable step makes it
        // append-maintainable — unlike a cached avg column.
        AddCacheableAggregateStep(&plan, block_source, fv, fv_group,
                                  {{AggFunc::kSum, t.argument, "__vs"},
                                   {AggFunc::kCount, t.argument, "__vc"}},
                                  /*cacheable=*/block_source ==
                                      query.table_name);
        block_source = fv;
        spec.func = AggFunc::kSum;
        spec.value = Col("__vs");
        spec.count_value = Col("__vc");
        spec.percent = false;
      } else {
        // FV = the vertical aggregate at level D1..Dj, Dh..Dk.
        PCTAGG_ASSIGN_OR_RETURN(AggFunc combine, CombineFunc(direct_func));
        std::string fv = NewTempName("FVh");
        std::vector<std::string> fv_group = query.group_by;
        fv_group.insert(fv_group.end(), t.by_columns.begin(),
                        t.by_columns.end());
        AddCacheableAggregateStep(&plan, block_source, fv, fv_group,
                                  {{direct_func, t.argument, "__v"}},
                                  /*cacheable=*/block_source ==
                                      query.table_name);
        block_source = fv;
        spec.func = combine;
        spec.value = Col("__v");
        spec.percent = false;
      }
    } else {
      spec.func = direct_func;
      spec.value = t.func == TermFunc::kCountStar ? nullptr : t.argument;
      spec.percent = is_pct;
    }

    std::string block = NewTempName("FH");
    std::string value_sql =
        spec.value != nullptr
            ? spec.value->ToString()
            : (t.func == TermFunc::kCountStar ? "1" : t.argument->ToString());
    std::string sql =
        spj ? "/* SPJ: F0 + one F_I per combination, N left outer joins */ "
              "INSERT INTO " + block + " SELECT ... FROM " + block_source
            : RenderCaseSql(block, block_source, t, value_sql, query.group_by,
                            spec.percent);
    plan.AddStep(sql, [block_source, block, spec, spj,
                       hash_dispatch = strategy.hash_dispatch](
                          ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(const Table* input,
                              ctx->catalog->GetTable(block_source));
      Result<Table> out = [&]() -> Result<Table> {
        if (spec.count_value != nullptr) {
          return ComputeAvgRatioBlock(*input, spec, spj, hash_dispatch);
        }
        return spj ? ComputeSpjBlock(*input, spec)
                   : ComputeCaseBlock(*input, spec, hash_dispatch);
      }();
      if (!out.ok()) return out.status();
      if (spec.zero_fill_percent_rows) {
        PCTAGG_RETURN_IF_ERROR(
            ZeroFillPercentRows(&out.value(), spec.group_by.size()));
      }
      ctx->catalog->CreateOrReplaceTable(block, std::move(out).value());
      return Status::OK();
    });
    plan.AddTempTable(block);
    block_names.push_back(block);
  }

  // Vertical-aggregate block (sum(salesAmt) etc. grouped by D1..Dj).
  if (!extra_aggs.empty()) {
    std::string va = NewTempName("FA");
    std::vector<std::string> rendered = query.group_by;
    for (const AggSpec& a : extra_aggs) {
      std::string arg = a.func == AggFunc::kCountStar ? "*" : a.input->ToString();
      rendered.push_back(std::string(AggFuncName(a.func)) + "(" + arg +
                         ") AS " + a.output_name);
    }
    std::string sql = "INSERT INTO " + va + " SELECT " + Join(rendered, ", ") +
                      " FROM " + source;
    if (!query.group_by.empty()) sql += " GROUP BY " + Join(query.group_by, ", ");
    plan.AddStep(sql, [src = source, va, group_by = query.group_by,
                       extra_aggs](ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(const Table* input, ctx->catalog->GetTable(src));
      PCTAGG_ASSIGN_OR_RETURN(Table out,
                              HashAggregate(*input, group_by, extra_aggs));
      ctx->catalog->CreateOrReplaceTable(va, std::move(out));
      return Status::OK();
    });
    plan.AddTempTable(va);
    block_names.push_back(va);
  }

  if (block_names.empty()) {
    return Status::Internal("horizontal query produced no blocks");
  }

  // Assemble blocks into the final FH.
  std::string fh = NewTempName("FHout");
  if (block_names.size() == 1) {
    plan.AddStep("/* FH = " + block_names[0] + " */",
                 [b = block_names[0], fh](ExecContext* ctx) -> Status {
                   PCTAGG_ASSIGN_OR_RETURN(Table* t, ctx->catalog->GetTable(b));
                   ctx->catalog->CreateOrReplaceTable(fh, std::move(*t));
                   return Status::OK();
                 });
  } else {
    std::string sql = "INSERT INTO " + fh + " SELECT * FROM " +
                      Join(block_names, " LEFT OUTER JOIN ") +
                      (query.group_by.empty()
                           ? ""
                           : " ON " + Join(query.group_by, ", "));
    plan.AddStep(sql, [blocks = block_names, fh,
                       group_by = query.group_by](ExecContext* ctx) -> Status {
      PCTAGG_ASSIGN_OR_RETURN(Table* first, ctx->catalog->GetTable(blocks[0]));
      Table current = std::move(*first);
      for (size_t b = 1; b < blocks.size(); ++b) {
        PCTAGG_ASSIGN_OR_RETURN(const Table* next,
                                ctx->catalog->GetTable(blocks[b]));
        if (group_by.empty()) {
          // Single-row blocks: concatenate columns.
          for (size_t c = 0; c < next->num_columns(); ++c) {
            PCTAGG_RETURN_IF_ERROR(current.AddColumn(
                next->schema().column(c), next->column(c)));
          }
          continue;
        }
        std::vector<JoinOutput> outputs;
        for (size_t c = 0; c < current.num_columns(); ++c) {
          outputs.push_back(JoinOutput::Left(current.schema().column(c).name));
        }
        for (size_t c = 0; c < next->num_columns(); ++c) {
          const std::string& name = next->schema().column(c).name;
          bool is_key = false;
          for (const std::string& g : group_by) {
            if (EqualsIgnoreCase(g, name)) {
              is_key = true;
              break;
            }
          }
          if (!is_key) outputs.push_back(JoinOutput::Right(name));
        }
        PCTAGG_ASSIGN_OR_RETURN(
            current, HashJoin(current, *next, group_by, group_by,
                              JoinKind::kLeftOuter, outputs, nullptr,
                              /*null_safe=*/true));
      }
      ctx->catalog->CreateOrReplaceTable(fh, std::move(current));
      return Status::OK();
    });
  }
  plan.AddTempTable(fh);

  if (strategy.order_result && !query.group_by.empty()) {
    plan.AddStep("/* display */ ORDER BY " + Join(query.group_by, ", "),
                 [fh, group_by = query.group_by](ExecContext* ctx) -> Status {
                   PCTAGG_ASSIGN_OR_RETURN(Table* t, ctx->catalog->GetTable(fh));
                   PCTAGG_ASSIGN_OR_RETURN(Table sorted, Sort(*t, group_by));
                   *t = std::move(sorted);
                   return Status::OK();
                 });
  }

  plan.set_result_table(fh);
  return plan;
}

}  // namespace pctagg
