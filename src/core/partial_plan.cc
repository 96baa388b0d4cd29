#include "core/partial_plan.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "common/string_util.h"
#include "core/mqo_plan.h"
#include "engine/expression.h"
#include "engine/join.h"
#include "engine/pipeline.h"
#include "engine/pivot.h"
#include "engine/table_ops.h"

namespace pctagg {

namespace {

constexpr size_t kNone = PartialPlan::TermRead::kNone;

// Maps a non-percentage SELECT term onto the engine aggregate.
Result<AggFunc> TermAggFunc(TermFunc func) {
  switch (func) {
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
      return Status::Internal("not a vertical aggregate term");
  }
}

// "sum(a)": the identity partials are deduplicated and matched on, so a
// recipe written by any planner matches whatever it names its columns.
std::string PartialKey(const AggSpec& a) {
  return std::string(AggFuncName(a.func)) + "(" +
         (a.func == AggFunc::kCountStar ? "*" : a.input->ToString()) + ")";
}

std::string RenderAgg(const AggSpec& a) {
  return PartialKey(a) + " AS " + a.output_name;
}

// "sum(a) AS __l1,count(*) AS __l2": the aggregate list as summary-cache keys
// render it (the materialized planners use the same form).
std::string RenderAggs(const std::vector<AggSpec>& aggs) {
  std::vector<std::string> rendered;
  rendered.reserve(aggs.size());
  for (const AggSpec& a : aggs) rendered.push_back(RenderAgg(a));
  return Join(rendered, ",");
}

Result<size_t> ColIndex(const Table& t, const std::string& name) {
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (EqualsIgnoreCase(t.schema().column(c).name, name)) return c;
  }
  return Status::Internal("partial plan lost column: " + name);
}

bool ContainsColumn(const std::vector<std::string>& cols,
                    const std::string& name) {
  for (const std::string& c : cols) {
    if (EqualsIgnoreCase(c, name)) return true;
  }
  return false;
}

bool Subsumes(const std::vector<std::string>& outer,
              const std::vector<std::string>& inner) {
  for (const std::string& i : inner) {
    if (!ContainsColumn(outer, i)) return false;
  }
  return true;
}

std::string LevelName(const std::vector<std::string>& cols) {
  return "(" + Join(cols, ", ") + ")";
}

// Both absent, or rendered alike: the textual WHERE equality MQO batches on.
bool SameWhere(const ExprPtr& a, const ExprPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->ToString() == b->ToString();
}

// Adds the partial (func, argument) unless an equal one exists, so e.g.
// Vpct(x BY a) and Vpct(x BY b) — or Hpct(x BY d) and sum(x) — share one sum.
size_t AddPartial(PartialPlan* plan, AggFunc func, const ExprPtr& argument) {
  const AggSpec spec{func, argument,
                     "__l" + std::to_string(plan->partials.size() + 1)};
  const std::string key = PartialKey(spec);
  for (size_t i = 0; i < plan->partials.size(); ++i) {
    if (PartialKey(plan->partials[i]) == key) return i;
  }
  plan->partials.push_back(spec);
  return plan->partials.size() - 1;
}

// avg = sum / count per row of two partial columns; NULL where either is
// NULL or the count is zero.
Column AvgColumn(const Column& sum, const Column& count) {
  Column out(DataType::kFloat64);
  out.Reserve(sum.size());
  for (size_t r = 0; r < sum.size(); ++r) {
    if (sum.IsNull(r) || count.IsNull(r) || count.NumericAt(r) == 0.0) {
      out.AppendNull();
    } else {
      out.AppendFloat64(sum.NumericAt(r) / count.NumericAt(r));
    }
  }
  return out;
}

// `rows` copies of `value` (NULL included) in a column of `type`.
Result<Column> Filled(DataType type, const Value& value, size_t rows) {
  Column out(type);
  out.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    PCTAGG_RETURN_IF_ERROR(out.AppendValue(value));
  }
  return out;
}

// The details of the steps after the source, as plain EXPLAIN lists them.
std::string RollupDetail(const std::vector<std::string>& cols,
                         const std::vector<std::string>& from) {
  return "lattice-rollup: level " + LevelName(cols) + " from " +
         LevelName(from);
}

std::string PivotDetail(const PartialPlan& plan, size_t level) {
  const AnalyzedTerm& h = *plan.by_term;
  const size_t read = plan.reads[&h - plan.query->terms.data()].main;
  const bool pct = h.func == TermFunc::kHpct;
  const std::vector<std::string>& cols = plan.levels[level];
  return "lattice-pivot: level " +
         LevelName({cols.begin(), cols.end() - h.by_columns.size()}) + " " +
         AggFuncName(pct ? AggFunc::kSum : plan.combine[read].func) + "(" +
         plan.partials[read].output_name + ") BY " +
         Join(h.by_columns, ", ") + (pct ? " percent-of-group-total" : "");
}

std::string AssembleDetail(const PartialPlan& plan) {
  return StrFormat("lattice-assemble: %zu level(s), %s + GROUPING ids",
                   plan.emitted_levels,
                   plan.by_term != nullptr ? "pivot columns"
                                           : "SELECT-order blocks");
}

// The output names of the partials, which every computed level carries.
std::vector<std::string> PartialNames(const PartialPlan& plan) {
  std::vector<std::string> names;
  names.reserve(plan.partials.size());
  for (const AggSpec& p : plan.partials) names.push_back(p.output_name);
  return names;
}

// The levels in execution order: the finest first, then by descending
// width (stable, so statement order among equals).
std::vector<size_t> LevelOrder(const PartialPlan& plan) {
  std::vector<size_t> order(plan.levels.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&plan](size_t a, size_t b) {
    return plan.levels[a].size() > plan.levels[b].size();
  });
  return order;
}

// The computed level (order[0..oi)) that level order[oi] rolls up from: the
// one with the fewest `rows` whose grouping subsumes it, the finest on ties.
size_t RollupSource(const PartialPlan& plan, const std::vector<size_t>& order,
                    size_t oi, const std::vector<double>& rows) {
  size_t src = order[0];
  for (size_t pj = 1; pj < oi; ++pj) {
    const size_t cand = order[pj];
    if (Subsumes(plan.levels[cand], plan.levels[order[oi]]) &&
        rows[cand] < rows[src]) {
      src = cand;
    }
  }
  return src;
}

// Vertical/Vpct assembly: one block per emitted level with the full
// SELECT-order schema (grouping columns the level rolled away become NULL,
// GROUPING() becomes its 0/1 id, Vpct divides against the level's own
// totals), concatenated in statement order.
Result<Table> AssembleVertical(
    const PartialPlan& plan,
    const std::vector<std::shared_ptr<const Table>>& tables, size_t dop) {
  const AnalyzedQuery& query = *plan.query;
  obs::OpScope op("assemble");
  Table out;
  for (size_t li = 0; li < plan.emitted_levels; ++li) {
    const std::vector<std::string>& cols = plan.levels[li];
    const Table& t = *tables[li];
    Table block;
    for (size_t ti = 0; ti < query.terms.size(); ++ti) {
      const AnalyzedTerm& term = query.terms[ti];
      const PartialPlan::TermRead& read = plan.reads[ti];
      Column cell(DataType::kFloat64);
      switch (term.func) {
        case TermFunc::kScalar: {
          if (ContainsColumn(cols, term.scalar_column)) {
            PCTAGG_ASSIGN_OR_RETURN(size_t c,
                                    ColIndex(t, term.scalar_column));
            cell = t.column(c);
          } else {
            PCTAGG_ASSIGN_OR_RETURN(size_t fc,
                                    query.schema.FindColumn(term.scalar_column));
            PCTAGG_ASSIGN_OR_RETURN(cell, Filled(query.schema.column(fc).type,
                                                 Value::Null(), t.num_rows()));
          }
          break;
        }
        case TermFunc::kGrouping: {
          const int64_t id = ContainsColumn(cols, term.scalar_column) ? 0 : 1;
          PCTAGG_ASSIGN_OR_RETURN(
              cell, Filled(DataType::kInt64, Value::Int64(id), t.num_rows()));
          break;
        }
        case TermFunc::kVpct: {
          // The level's own totals: its columns minus BY (grand total when
          // empty), matching the analyzer's totals_by reading per level.
          const std::string& sum_col = plan.partials[read.main].output_name;
          PCTAGG_ASSIGN_OR_RETURN(size_t sc, ColIndex(t, sum_col));
          std::vector<std::string> totals_by;
          if (term.has_by) {
            for (const std::string& c : cols) {
              if (!ContainsColumn(term.by_columns, c)) totals_by.push_back(c);
            }
          }
          PCTAGG_ASSIGN_OR_RETURN(
              Table tot,
              HashAggregate(t, totals_by,
                            {{AggFunc::kSum, Col(sum_col), "__tot"}}, dop));
          PCTAGG_ASSIGN_OR_RETURN(size_t tc, ColIndex(tot, "__tot"));
          if (totals_by.empty()) {
            if (tot.num_rows() != 1) {
              return Status::Internal(
                  "grand-total table must have exactly one row");
            }
            PCTAGG_ASSIGN_OR_RETURN(
                cell,
                PercentDivideScalar(t.column(sc), tot.column(tc).GetValue(0)));
          } else {
            PCTAGG_ASSIGN_OR_RETURN(
                Column totals, LookupColumn(t, tot, totals_by, totals_by,
                                            "__tot", nullptr));
            PCTAGG_ASSIGN_OR_RETURN(
                cell, PercentDivideColumns(t.column(sc), totals));
          }
          break;
        }
        default: {
          PCTAGG_ASSIGN_OR_RETURN(
              size_t c, ColIndex(t, plan.partials[read.main].output_name));
          if (read.count == kNone) {
            cell = t.column(c);
            break;
          }
          PCTAGG_ASSIGN_OR_RETURN(
              size_t n, ColIndex(t, plan.partials[read.count].output_name));
          cell = AvgColumn(t.column(c), t.column(n));
          break;
        }
      }
      const DataType type = cell.type();
      PCTAGG_RETURN_IF_ERROR(
          block.AddColumn({term.output_name, type}, std::move(cell)));
    }
    if (li == 0) {
      out = std::move(block);
    } else {
      PCTAGG_RETURN_IF_ERROR(InsertInto(&out, block));
    }
  }
  op.SetRows(out.num_rows(), out.num_rows());
  op.SetDetail("levels=" + std::to_string(plan.emitted_levels));
  return out;
}

// An extra vertical aggregate of a horizontal query: rolled up per level
// from the same partial table as the pivot.
bool IsExtra(const AnalyzedTerm& t) {
  return t.func != TermFunc::kScalar && t.func != TermFunc::kGrouping &&
         !t.has_by;
}

// One level of a horizontal query: its partial table pivoted at the level's
// own grouping columns, and its extras.
struct LevelBlock {
  std::vector<std::string> set;  // the level's grouping columns
  Table pivot;
  std::vector<std::string> pivot_names;
  Table extras;
};

Result<LevelBlock> PivotLevel(const PartialPlan& plan, const Table& t,
                              size_t li, size_t dop) {
  const AnalyzedQuery& query = *plan.query;
  const AnalyzedTerm& hterm = *plan.by_term;
  const bool is_pct = hterm.func == TermFunc::kHpct;
  const size_t hmain = plan.reads[&hterm - query.terms.data()].main;
  PivotOptions popt;
  // For Hpct the group total is the sum of the partial sums, so
  // percent-of-group-total over partials equals the direct computation.
  popt.func = is_pct ? AggFunc::kSum : plan.combine[hmain].func;
  popt.default_zero = hterm.has_default;
  popt.percent_of_group_total = is_pct;

  LevelBlock b;
  b.set.assign(plan.levels[li].begin(),
               plan.levels[li].end() - hterm.by_columns.size());
  PCTAGG_ASSIGN_OR_RETURN(
      b.pivot,
      HashDispatchPivot(t, b.set, hterm.by_columns,
                        Col(plan.partials[hmain].output_name), popt, dop));
  for (size_t c = b.set.size(); c < b.pivot.num_columns(); ++c) {
    b.pivot_names.push_back(b.pivot.schema().column(c).name);
  }
  if (std::any_of(query.terms.begin(), query.terms.end(), IsExtra)) {
    // Both the pivot and this re-aggregation emit groups in first-seen
    // order over the same partial table, so the rows align positionally.
    // A global pivot over no rows has no columns at all, so it cannot hold
    // the one row the global extras have; the extras decide the rows then.
    PCTAGG_ASSIGN_OR_RETURN(
        b.extras, RollUp(plan.partials, t, b.set, PartialNames(plan), dop));
    if (b.pivot.num_columns() != 0 &&
        b.extras.num_rows() != b.pivot.num_rows()) {
      return Status::Internal("extras misaligned with pivot block");
    }
  }
  return b;
}

// Horizontal assembly: the pivoted levels land in one result whose schema
// is the union grouping columns (NULL where rolled away) + GROUPING() ids +
// the union of all pivot columns + the extra aggregates.
Result<Table> AssembleHorizontal(const PartialPlan& plan,
                                 const std::vector<LevelBlock>& blocks) {
  const AnalyzedQuery& query = *plan.query;
  const bool default_zero = plan.by_term->has_default;

  // Union of the per-level pivot columns, in first-appearance order across
  // blocks. Every level sees the same BY combinations of the (filtered) fact
  // in the same first-seen order, so this matches each block's own order; the
  // union form only matters if a level's pivot came up empty.
  std::vector<std::string> master;
  std::vector<DataType> master_types;
  for (const LevelBlock& b : blocks) {
    for (size_t i = 0; i < b.pivot_names.size(); ++i) {
      if (ContainsColumn(master, b.pivot_names[i])) continue;
      master.push_back(b.pivot_names[i]);
      master_types.push_back(b.pivot.schema().column(b.set.size() + i).type);
    }
  }

  obs::OpScope op("assemble");

  // One block per level, built column-wise in the result's schema: the
  // union grouping columns (NULL where the level rolled them away), the
  // GROUPING() ids, every pivot column (NULL, or 0 under DEFAULT, where the
  // level lacks it) and the extras.
  Table out;
  for (size_t li = 0; li < blocks.size(); ++li) {
    const LevelBlock& b = blocks[li];
    const size_t rows = b.pivot.num_columns() != 0 ? b.pivot.num_rows()
                                                   : b.extras.num_rows();
    Table block;
    for (const std::string& g : query.group_by) {
      PCTAGG_ASSIGN_OR_RETURN(size_t fc, query.schema.FindColumn(g));
      const ColumnDef& def = query.schema.column(fc);
      Column col(def.type);
      auto at = std::find_if(b.set.begin(), b.set.end(),
                             [&g](const std::string& c) {
                               return EqualsIgnoreCase(c, g);
                             });
      if (at != b.set.end()) {
        col = b.pivot.column(static_cast<size_t>(at - b.set.begin()));
      } else {
        PCTAGG_ASSIGN_OR_RETURN(col, Filled(def.type, Value::Null(), rows));
      }
      PCTAGG_RETURN_IF_ERROR(block.AddColumn(def, std::move(col)));
    }
    for (const AnalyzedTerm& term : query.terms) {
      if (term.func != TermFunc::kGrouping) continue;
      const int64_t id = ContainsColumn(b.set, term.scalar_column) ? 0 : 1;
      PCTAGG_ASSIGN_OR_RETURN(
          Column ids, Filled(DataType::kInt64, Value::Int64(id), rows));
      PCTAGG_RETURN_IF_ERROR(block.AddColumn(
          {term.output_name, DataType::kInt64}, std::move(ids)));
    }
    for (size_t mi = 0; mi < master.size(); ++mi) {
      Column col(master_types[mi]);
      auto at = std::find_if(b.pivot_names.begin(), b.pivot_names.end(),
                             [&](const std::string& name) {
                               return EqualsIgnoreCase(name, master[mi]);
                             });
      if (at != b.pivot_names.end()) {
        col = b.pivot.column(b.set.size() +
                             static_cast<size_t>(at - b.pivot_names.begin()));
      } else {
        const Value fill = !default_zero ? Value::Null()
                           : master_types[mi] == DataType::kInt64
                               ? Value::Int64(0)
                               : Value::Float64(0.0);
        PCTAGG_ASSIGN_OR_RETURN(col, Filled(master_types[mi], fill, rows));
      }
      PCTAGG_RETURN_IF_ERROR(
          block.AddColumn({master[mi], master_types[mi]}, std::move(col)));
    }
    for (size_t ti = 0; ti < query.terms.size(); ++ti) {
      if (!IsExtra(query.terms[ti])) continue;
      const PartialPlan::TermRead& read = plan.reads[ti];
      PCTAGG_ASSIGN_OR_RETURN(
          size_t c, ColIndex(b.extras, plan.partials[read.main].output_name));
      Column col = b.extras.column(c);
      if (read.count != kNone) {
        PCTAGG_ASSIGN_OR_RETURN(
            size_t n,
            ColIndex(b.extras, plan.partials[read.count].output_name));
        col = AvgColumn(col, b.extras.column(n));
      }
      const DataType type = col.type();
      PCTAGG_RETURN_IF_ERROR(block.AddColumn(
          {query.terms[ti].output_name, type}, std::move(col)));
    }
    if (li == 0) {
      out = std::move(block);
    } else {
      PCTAGG_RETURN_IF_ERROR(InsertInto(&out, block));
    }
  }
  op.SetRows(out.num_rows(), out.num_rows());
  op.SetDetail(StrFormat("levels=%zu pivot_columns=%zu", plan.emitted_levels,
                         master.size()));
  return out;
}

}  // namespace

Status DistributedError(const std::string& table, const std::string& why) {
  return Status::InvalidArgument("distributed: " + why + " (table '" + table +
                                 "' is sharded)");
}

std::vector<double> EstimateLevelRows(const PartialPlan& plan,
                                      const PlannerStats& stats) {
  std::vector<double> rows;
  rows.reserve(plan.levels.size());
  for (const std::vector<std::string>& cols : plan.levels) {
    // Unknown to the statistics (never, for an analyzed query): at most n.
    Result<double> card = stats.ComboCardinality(cols);
    rows.push_back(card.ok() ? card.value() : stats.rows());
  }
  return rows;
}

bool PartialPlanSupported(const AnalyzedQuery& query, std::string* why) {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  const bool sets = query.has_grouping_sets;
  if (query.query_class == QueryClass::kWindow) {
    return fail(sets ? "window functions cannot be combined with grouping sets"
                     : "window functions are not distributed");
  }
  if (!sets && query.query_class == QueryClass::kProjection) {
    return fail("projection queries have no distributive partials");
  }
  size_t by_terms = 0;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func == TermFunc::kScalar || t.func == TermFunc::kGrouping) continue;
    if (t.distinct) {
      return fail(sets ? "count(DISTINCT ...) is not supported with grouping "
                         "sets"
                       : "count(DISTINCT ...) is not distributive across "
                         "shards");
    }
    if (t.func == TermFunc::kVpct) continue;
    if (t.has_by) {
      ++by_terms;
      if (t.func == TermFunc::kAvg) {
        return fail(std::string("avg(... BY ...) is not distributive ") +
                    (sets ? "over the lattice" : "across shards") +
                    "; use sum and count terms instead");
      }
      if (t.func != TermFunc::kHpct && !TermAggFunc(t.func).ok()) {
        return fail(sets ? "unsupported horizontal aggregate with grouping "
                           "sets"
                         : "unsupported horizontal aggregate for distributed "
                           "execution");
      }
    } else if (!TermAggFunc(t.func).ok()) {
      return fail(sets ? "unsupported aggregate with grouping sets"
                       : "unsupported aggregate for distributed execution");
    }
  }
  if (query.query_class == QueryClass::kHorizontal && by_terms != 1) {
    return fail(sets ? "grouping sets support exactly one horizontal (BY) "
                       "term per statement"
                     : "distributed execution supports exactly one "
                       "horizontal (BY) term per statement");
  }
  return true;
}

namespace {

// The partial-aggregation SELECT a scan of `from` computes: group columns,
// then the aggregates, with the WHERE and GROUP BY clauses.
std::string RenderPartialSelect(const std::vector<std::string>& cols,
                                const std::vector<AggSpec>& aggs,
                                const std::string& from,
                                const ExprPtr& where) {
  std::vector<std::string> items = cols;
  for (const AggSpec& a : aggs) items.push_back(RenderAgg(a));
  std::string sql = "SELECT " + Join(items, ", ") + " FROM " + from;
  if (where != nullptr) sql += " WHERE " + where->ToString();
  if (!cols.empty()) sql += " GROUP BY " + Join(cols, ", ");
  return sql;
}

// The re-aggregation that merges each partial column under its own name:
// min stays min, max stays max, sums and counts re-sum.
std::vector<AggSpec> CombineSpecs(const std::vector<AggSpec>& partials) {
  std::vector<AggSpec> out;
  out.reserve(partials.size());
  for (const AggSpec& p : partials) {
    const AggFunc combine =
        p.func == AggFunc::kMin || p.func == AggFunc::kMax ? p.func
                                                           : AggFunc::kSum;
    out.push_back({combine, Col(p.output_name), p.output_name});
  }
  return out;
}

}  // namespace

Result<PartialPlan> BuildPartialPlan(const AnalyzedQuery& query) {
  std::string why;
  if (!PartialPlanSupported(query, &why)) {
    return Status::InvalidArgument("no partial plan: " + why);
  }
  PartialPlan plan;
  plan.query = &query;
  plan.reads.assign(query.terms.size(), PartialPlan::TermRead{});
  for (size_t i = 0; i < query.terms.size(); ++i) {
    const AnalyzedTerm& t = query.terms[i];
    PartialPlan::TermRead& read = plan.reads[i];
    if (t.func == TermFunc::kScalar || t.func == TermFunc::kGrouping) continue;
    if (t.func == TermFunc::kVpct || t.func == TermFunc::kHpct) {
      read.main = AddPartial(&plan, AggFunc::kSum, t.argument);
    } else if (t.func == TermFunc::kAvg) {
      // avg is algebraic: sum + count keep every partial distributive and
      // the cache recipes mergeable.
      read.main = AddPartial(&plan, AggFunc::kSum, t.argument);
      read.count = AddPartial(&plan, AggFunc::kCount, t.argument);
    } else {
      PCTAGG_ASSIGN_OR_RETURN(AggFunc func, TermAggFunc(t.func));
      read.main = AddPartial(&plan, func, t.argument);
    }
    if (t.has_by && t.func != TermFunc::kVpct) plan.by_term = &t;
  }
  // A pure grouping query (scalars + GROUPING() only) still needs one
  // concrete column per level so the () level materializes its single row.
  if (plan.partials.empty()) AddPartial(&plan, AggFunc::kCountStar, nullptr);
  plan.combine = CombineSpecs(plan.partials);

  const std::vector<std::string> no_by;
  const std::vector<std::string>& by =
      plan.by_term != nullptr ? plan.by_term->by_columns : no_by;
  std::vector<std::vector<std::string>> sets =
      query.has_grouping_sets
          ? query.grouping_sets
          : std::vector<std::vector<std::string>>{query.group_by};
  plan.emitted_levels = sets.size();
  // Levels are normalized subsets of the union, so size equality means
  // equality: add the union as a rollup-only level when nobody asked for it.
  if (std::none_of(sets.begin(), sets.end(),
                   [&query](const std::vector<std::string>& s) {
                     return s.size() == query.group_by.size();
                   })) {
    sets.push_back(query.group_by);
  }
  for (std::vector<std::string>& cols : sets) {
    cols.insert(cols.end(), by.begin(), by.end());
    plan.levels.push_back(std::move(cols));
  }
  plan.finest_cols = query.group_by;
  plan.finest_cols.insert(plan.finest_cols.end(), by.begin(), by.end());
  plan.partial_sql = RenderPartialSelect(plan.finest_cols, plan.partials,
                                         query.table_name, query.where);
  return plan;
}

bool MatchPartials(const std::vector<AggSpec>& wanted,
                   const std::vector<AggSpec>& available,
                   std::vector<std::string>* inputs) {
  inputs->clear();
  for (const AggSpec& w : wanted) {
    const std::string key = PartialKey(w);
    auto found = std::find_if(
        available.begin(), available.end(),
        [&key](const AggSpec& a) { return PartialKey(a) == key; });
    if (found == available.end()) return false;
    inputs->push_back(found->output_name);
  }
  return true;
}

Result<Table> RollUp(const std::vector<AggSpec>& partials, const Table& source,
                     const std::vector<std::string>& cols,
                     const std::vector<std::string>& inputs, size_t dop) {
  std::vector<AggSpec> specs = CombineSpecs(partials);
  for (size_t i = 0; i < specs.size(); ++i) specs[i].input = Col(inputs[i]);
  PCTAGG_ASSIGN_OR_RETURN(Table out, HashAggregate(source, cols, specs, dop));
  if (cols.empty() && source.num_rows() == 0) {
    // Rolling up zero groups leaves the global row's count partials NULL
    // where a direct scan of the empty input emits 0.
    for (size_t a = 0; a < partials.size(); ++a) {
      const AggFunc func = partials[a].func;
      if (func != AggFunc::kCount && func != AggFunc::kCountStar) continue;
      PCTAGG_RETURN_IF_ERROR(out.mutable_column(a).SetValue(0, Value::Int64(0)));
    }
  }
  return out;
}

namespace {

// What the partial path's steps share while one plan runs: the read the
// lowering set up, and what the steps computed so far.
struct PartialRun {
  PartialRun(PartialPlan p, std::string t, ExprPtr w, size_t d, ShardFetch* s)
      : plan(std::move(p)), table(std::move(t)), where(std::move(w)), dop(d),
        shards(s), cacheable(where == nullptr), order(LevelOrder(plan)),
        tables(plan.levels.size()), rows(plan.levels.size()),
        blocks(plan.by_term != nullptr ? plan.emitted_levels : 0) {}

  PartialPlan plan;  // its finest level read from `table` under `where`
  std::string table;
  ExprPtr where;
  size_t dop;
  ShardFetch* shards;
  const MqoBatchScan* batch = nullptr;
  std::vector<std::string> batch_inputs;  // the union columns read
  bool cacheable;  // unfiltered, and no batch serves it
  std::vector<size_t> order;  // LevelOrder(plan)

  // Filled by the steps: every level (the finest is order[0]), the pivots,
  // the shards' replies and the cache fill a failed step leaves to the
  // run's destruction.
  std::vector<std::shared_ptr<const Table>> tables;
  std::vector<double> rows;
  std::vector<LevelBlock> blocks;
  std::vector<Table> replies;
  std::string key;
  uint64_t generation = 0;
  std::optional<SummaryCache::ScopedFill> fill;
};

void Rename(obs::QueryTrace* trace, const char* strategy,
            const char* source) {
  if (trace == nullptr) return;
  trace->strategy = strategy;
  trace->strategy_source = source;
}

// Level `cols` from the summary cache of a cacheable read, or null with the
// entry's fill claimed (single-flight: identical misses wait for one
// computation). SetComputed releases it before any later lookup.
std::shared_ptr<const Table> Lookup(PartialRun* run, ExecContext* ctx,
                                    const std::vector<std::string>& cols) {
  if (!run->cacheable || ctx->summaries == nullptr) return nullptr;
  run->key =
      SummaryCache::KeyFor(run->table, cols, RenderAggs(run->plan.partials));
  std::shared_ptr<const Table> cached;
  if (ctx->summaries->LookupOrBeginFill(run->key, &cached)) {
    run->generation = ctx->summaries->GenerationFor(run->table);
    run->fill.emplace(ctx->summaries, run->key);
  }
  return cached;
}

// Level `li`, from the cache or computed; the finest is the source's answer.
void SetLevel(PartialRun* run, ExecContext* ctx, size_t li,
              std::shared_ptr<const Table> t) {
  run->rows[li] = static_cast<double>(t->num_rows());
  run->tables[li] = std::move(t);
  if (li == run->order[0] && ctx->trace != nullptr) {
    ctx->trace->actual_group_rows = run->rows[li];
  }
}

// Level `li`, grouped by `cols`, computed by a step, fills the entry Lookup
// claimed under its own mergeable recipe, so APPEND maintains it.
Status SetComputed(PartialRun* run, ExecContext* ctx, size_t li,
                   const std::vector<std::string>& cols,
                   Result<Table> computed) {
  if (!computed.ok()) return computed.status();
  if (run->fill) {
    const SummaryRecipe recipe{cols, run->plan.partials};
    ctx->summaries->Insert(run->key, *computed, run->generation, &recipe);
    run->fill.reset();
  }
  SetLevel(run, ctx, li, std::make_shared<const Table>(std::move(*computed)));
  return Status::OK();
}
Status SetFinest(PartialRun* run, ExecContext* ctx, Result<Table> computed) {
  return SetComputed(run, ctx, run->order[0], run->plan.finest_cols,
                     std::move(computed));
}

// The first step of a fused-scan or sharded source: true when the exact
// entry or the smallest cached ancestor, rolled down, answered.
Result<bool> FromCache(PartialRun* run, ExecContext* ctx) {
  const PartialPlan& plan = run->plan;
  if (std::shared_ptr<const Table> cached =
          Lookup(run, ctx, plan.finest_cols)) {
    obs::MarkCacheHit();
    Rename(ctx->trace, "partial from cache entry", "cache");
    SetLevel(run, ctx, run->order[0], std::move(cached));
    return true;
  }
  if (!run->fill) return false;  // no cache to consult

  // Every cached mergeable summary, whatever planner wrote it: the smallest
  // that groups at a finer or equal level and carries every partial serves.
  const std::vector<SummaryCache::AncestorCandidate> candidates =
      ctx->summaries->MergeableEntriesFor(run->table);
  const SummaryCache::AncestorCandidate* best = nullptr;
  std::vector<std::string> best_inputs;
  std::vector<std::string> inputs;
  for (const SummaryCache::AncestorCandidate& cand : candidates) {
    if (!Subsumes(cand.recipe.group_by, plan.finest_cols) ||
        !MatchPartials(plan.partials, cand.recipe.aggs, &inputs)) {
      continue;
    }
    if (best == nullptr ||
        cand.summary->num_rows() < best->summary->num_rows()) {
      best = &cand;
      best_inputs = inputs;
    }
  }
  if (best == nullptr) return false;
  if (ctx->node != nullptr) {
    ctx->node->label = "cache";
    ctx->node->detail = "cache-ancestor-rollup: level " +
                        LevelName(plan.finest_cols) + " from cached " +
                        LevelName(best->recipe.group_by);
  }
  obs::MarkCacheHit();
  Rename(ctx->trace, "partial from cached ancestor", "cache");
  // Count the hit and refresh the LRU position of the entry used.
  ctx->summaries->Lookup(best->key);
  PCTAGG_RETURN_IF_ERROR(SetFinest(
      run, ctx,
      RollUp(plan.partials, *best->summary, plan.finest_cols, best_inputs,
             run->dop)));
  return true;
}

// Level order[oi], from the cache or rolled up from the computed level with
// the fewest actual rows, which its node names.
Status RollupLevel(PartialRun* run, size_t oi, ExecContext* ctx) {
  const PartialPlan& plan = run->plan;
  const size_t li = run->order[oi];
  const std::vector<std::string>& cols = plan.levels[li];
  const size_t src = RollupSource(plan, run->order, oi, run->rows);
  if (ctx->node != nullptr) {
    ctx->node->detail = RollupDetail(cols, plan.levels[src]);
  }
  if (std::shared_ptr<const Table> cached = Lookup(run, ctx, cols)) {
    obs::MarkCacheHit();
    SetLevel(run, ctx, li, std::move(cached));
    return Status::OK();
  }
  return SetComputed(run, ctx, li, cols,
                     RollUp(plan.partials, *run->tables[src], cols,
                            PartialNames(plan), run->dop));
}

// The source steps of `run`: the batch's node and the rollup from its union
// table, the scatter and the merge of the replies, or one fused scan.
void AddSourceSteps(const std::shared_ptr<PartialRun>& run, Plan* steps) {
  const PartialPlan* p = &run->plan;  // lives as long as `run`
  if (run->batch != nullptr) {
    // The batch's node as the leader traced it: what the batch shared,
    // timed by the scan it ran once, with that scan's subtree.
    steps->AddStep("mqo-batch", run->batch->node.detail,
                   [run](ExecContext* ctx) {
                     if (ctx->node != nullptr) {
                       ctx->node->stats = run->batch->node.stats;
                       for (const auto& child : run->batch->node.children) {
                         ctx->node->AddCopy(*child);
                       }
                     }
                     Rename(ctx->trace, "partial from mqo batch", "mqo-gate");
                     return Status::OK();
                   });
    steps->AddStep("mqo",
                   "mqo-batch-rollup: level " + LevelName(p->finest_cols) +
                       " from batch " + LevelName(run->batch->plan.scan_cols),
                   [run, p](ExecContext* ctx) {
                     return SetFinest(
                         run.get(), ctx,
                         RollUp(p->partials, *run->batch->partials,
                                p->finest_cols, run->batch_inputs, run->dop));
                   });
  } else if (run->shards != nullptr) {
    const size_t shards = run->shards->num_shards();
    steps->AddStep(
        "scatter",
        StrFormat("PARTIAL %zu %s -> %zu shards", run->dop,
                  p->partial_sql.c_str(), shards),
        [run, p](ExecContext* ctx) -> Status {
          PCTAGG_ASSIGN_OR_RETURN(bool cached, FromCache(run.get(), ctx));
          if (cached) return Status::OK();
          PCTAGG_ASSIGN_OR_RETURN(
              run->replies,
              run->shards->Scatter(p->partial_sql, run->dop, ctx->node));
          return Status::OK();
        });
    steps->AddStep(
        "gather-merge",
        StrFormat("merged %zu shard partials (%zu group cols, %zu aggregates)",
                  shards, p->finest_cols.size(), p->partials.size()),
        [run, p](ExecContext* ctx) {
          if (run->replies.empty()) return Status::OK();  // the cache answered
          return SetFinest(run.get(), ctx,
                           run->shards->Gather(std::move(run->replies),
                                               p->finest_cols, p->partials,
                                               run->dop));
        });
  } else {
    steps->AddStep(
        "fused", "fused-scan: " + p->partial_sql,
        [run, p](ExecContext* ctx) -> Status {
          PCTAGG_ASSIGN_OR_RETURN(bool cached, FromCache(run.get(), ctx));
          if (cached) return Status::OK();
          PCTAGG_ASSIGN_OR_RETURN(const Table* fact,
                                  ctx->catalog->GetTable(run->table));
          return SetFinest(run.get(), ctx,
                           HashAggregate(*fact, p->finest_cols, p->partials,
                                         run->dop, run->where));
        });
  }
}

}  // namespace

void LowerPartialPlan(PartialPlan plan, const PartialSource& source,
                      const PlannerStats& stats, size_t dop, Plan* steps) {
  const std::vector<double> estimated = EstimateLevelRows(plan, stats);
  const AnalyzedQuery* query = plan.query;
  auto run = std::make_shared<PartialRun>(
      std::move(plan), query->table_name, query->where, dop, source.shards);
  const PartialPlan& p = run->plan;
  const MqoBatchScan* batch = source.batch;
  if (batch != nullptr && batch->partials != nullptr &&
      EqualsIgnoreCase(batch->plan.table, run->table) &&
      SameWhere(batch->plan.where, run->where) &&
      Subsumes(batch->plan.scan_cols, p.finest_cols) &&
      MatchPartials(p.partials, batch->plan.scan_partials,
                    &run->batch_inputs)) {
    run->batch = batch;
    run->cacheable = false;
  }
  if (source.finest != nullptr) {
    run->tables[run->order[0]] = source.finest;
    run->rows[run->order[0]] = static_cast<double>(source.finest->num_rows());
  } else {
    AddSourceSteps(run, steps);
  }
  for (size_t oi = 1; oi < run->order.size(); ++oi) {
    const size_t from = RollupSource(p, run->order, oi, estimated);
    steps->AddStep(
        "lattice", RollupDetail(p.levels[run->order[oi]], p.levels[from]),
        [run, oi](ExecContext* ctx) {
          return RollupLevel(run.get(), oi, ctx);
        });
  }
  for (size_t li = 0; li < run->blocks.size(); ++li) {
    steps->AddStep("lattice", PivotDetail(p, li),
                   [run, li](ExecContext*) -> Status {
                     PCTAGG_ASSIGN_OR_RETURN(
                         run->blocks[li],
                         PivotLevel(run->plan, *run->tables[li], li, run->dop));
                     return Status::OK();
                   });
  }
  steps->AddStep(
      "lattice", AssembleDetail(p), [run](ExecContext* ctx) -> Status {
        PCTAGG_ASSIGN_OR_RETURN(
            ctx->result,
            run->plan.by_term != nullptr
                ? AssembleHorizontal(run->plan, run->blocks)
                : AssembleVertical(run->plan, run->tables, run->dop));
        // Free the levels before the caller's tail.
        run->tables.assign(run->tables.size(), nullptr);
        run->blocks.assign(run->blocks.size(), LevelBlock());
        return Status::OK();
      });
}

Result<std::shared_ptr<const Table>> FinestPartials(
    const std::string& table, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    Catalog* catalog, SummaryCache* summaries, obs::QueryTrace* trace,
    size_t dop, ShardFetch* shards) {
  PartialPlan read;
  read.finest_cols = cols;
  read.partials = partials;
  read.levels = {cols};
  read.partial_sql = RenderPartialSelect(cols, partials, table, where);
  auto run = std::make_shared<PartialRun>(std::move(read), table, where, dop,
                                          shards);
  Plan steps;
  AddSourceSteps(run, &steps);
  PCTAGG_RETURN_IF_ERROR(steps.Execute(catalog, summaries, trace).status());
  return run->tables[0];
}

}  // namespace pctagg
