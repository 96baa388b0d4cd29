#include "core/database.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/lattice_plan.h"
#include "core/olap_planner.h"
#include "core/pipeline_plan.h"
#include "engine/aggregate.h"
#include "engine/csv.h"
#include "engine/merge.h"
#include "engine/parallel.h"
#include "engine/table_ops.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace pctagg {

namespace {

// Inline evaluation for plain projections and vertical aggregates (no
// percentage machinery involved).
Result<Table> EvaluateSimple(Catalog* catalog, const AnalyzedQuery& query) {
  PCTAGG_ASSIGN_OR_RETURN(const Table* base,
                          catalog->GetTable(query.table_name));
  Table filtered;
  const Table* input = base;
  if (query.where != nullptr) {
    PCTAGG_ASSIGN_OR_RETURN(filtered, Filter(*base, query.where));
    input = &filtered;
  }
  if (query.query_class == QueryClass::kProjection) {
    std::vector<ProjectSpec> specs;
    for (const AnalyzedTerm& t : query.terms) {
      specs.push_back({t.argument, t.output_name});
    }
    return Project(*input, specs);
  }
  // Vertical aggregate: group columns in SELECT order plus aggregates.
  std::vector<AggSpec> aggs;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func == TermFunc::kScalar) continue;
    AggFunc func;
    switch (t.func) {
      case TermFunc::kSum:
        func = AggFunc::kSum;
        break;
      case TermFunc::kCount:
        func = AggFunc::kCount;
        break;
      case TermFunc::kCountStar:
        func = AggFunc::kCountStar;
        break;
      case TermFunc::kAvg:
        func = AggFunc::kAvg;
        break;
      case TermFunc::kMin:
        func = AggFunc::kMin;
        break;
      case TermFunc::kMax:
        func = AggFunc::kMax;
        break;
      default:
        return Status::Internal("unexpected term in vertical aggregate");
    }
    if (t.distinct) {
      return Status::InvalidArgument(
          "count(DISTINCT ...) is only supported with a BY clause");
    }
    aggs.push_back({func, t.argument, t.output_name});
  }
  PCTAGG_ASSIGN_OR_RETURN(Table agg,
                          HashAggregate(*input, query.group_by, aggs));
  // Reorder to the SELECT list.
  std::vector<ProjectSpec> specs;
  for (const AnalyzedTerm& t : query.terms) {
    specs.push_back({Col(t.func == TermFunc::kScalar ? t.scalar_column
                                                     : t.output_name),
                     t.output_name});
  }
  return Project(agg, specs);
}

// Applies the statement tail — HAVING, ORDER BY, LIMIT — to the
// materialized result, in SQL's order.
Result<Table> ApplyTail(Table table, const AnalyzedQuery& query) {
  if (query.having != nullptr) {
    Result<Table> filtered = Filter(table, query.having);
    if (!filtered.ok()) {
      return Status::AnalysisError("HAVING failed to evaluate: " +
                                   filtered.status().message());
    }
    table = std::move(filtered).value();
  }
  if (!query.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& item : query.order_by) {
      if (!table.schema().HasColumn(item.column)) {
        return Status::AnalysisError("ORDER BY column not in result: " +
                                     item.column);
      }
      keys.push_back({item.column, item.descending});
    }
    PCTAGG_ASSIGN_OR_RETURN(table, SortBy(table, keys));
  }
  if (query.has_limit) {
    table = Limit(table, query.limit);
  }
  return table;
}

// Human name of an executed Vpct configuration, mirroring the Table 4 knobs.
std::string VpctStrategyName(const VpctStrategy& s) {
  std::string name = s.fj_from_fk ? "Fj-from-Fk" : "Fj-from-F";
  name += s.insert_result ? "+INSERT" : "+UPDATE";
  if (!s.matching_indexes) name += "+mismatched-indexes";
  if (s.fj_from_fk && s.lattice_reuse) name += "+lattice";
  return name;
}

// First term with a BY list (the one the advisor's estimates key off).
const AnalyzedTerm* FirstByTerm(const AnalyzedQuery& query) {
  for (const AnalyzedTerm& t : query.terms) {
    if (t.has_by) return &t;
  }
  return nullptr;
}

// Records the planning metadata EXPLAIN ANALYZE audits for a Vpct query:
// executed strategy, cost-model prediction per candidate (chosen marked),
// predicted |Fk|.
void FillVpctTrace(obs::QueryTrace* trace, const PlannerStats& fact,
                   const AnalyzedQuery& query, const VpctStrategy& strategy,
                   bool olap_baseline, bool forced, size_t dop,
                   bool fused_candidate = false, bool fused_chosen = false) {
  trace->strategy =
      olap_baseline ? "OLAP-window" : VpctStrategyName(strategy);
  trace->strategy_source = forced ? "forced" : "advisor";
  const AnalyzedTerm* term = FirstByTerm(query);
  CostModel model;
  Result<FactStats> stats = model.EstimateStats(
      fact, query.group_by,
      term != nullptr ? term->by_columns : std::vector<std::string>{},
      /*by=*/{});
  if (!stats.ok()) return;
  FactStats s = stats.value();
  s.dop = static_cast<double>(dop < 1 ? 1 : dop);
  trace->predicted_group_rows = s.group_cardinality;
  auto add_candidate = [&](const char* name, bool fj_from_fk,
                           bool insert_result) {
    VpctStrategy candidate = strategy;
    candidate.fj_from_fk = fj_from_fk;
    candidate.insert_result = insert_result;
    bool chosen = !fused_chosen && !olap_baseline &&
                  strategy.fj_from_fk == fj_from_fk &&
                  strategy.insert_result == insert_result;
    trace->predicted_costs.push_back(
        {name, model.VpctCost(s, candidate), chosen});
  };
  add_candidate("Fj-from-Fk+INSERT", true, true);
  add_candidate("Fj-from-F+INSERT", false, true);
  add_candidate("Fj-from-Fk+UPDATE", true, false);
  trace->predicted_costs.push_back(
      {"OLAP-window", model.OlapCost(s), olap_baseline});
  // The fused pipeline competes only on the advisor path; a forced strategy
  // keeps the original four-candidate audit the goldens pin.
  if (fused_candidate) {
    trace->predicted_costs.push_back(
        {"fused-pipeline", model.FusedVpctCost(s), fused_chosen});
  }
}

// Same for a horizontal query: the four SIGMOD Table 5 / DMKD Table 3
// methods ranked by the model, predicted |FV|.
void FillHorizontalTrace(obs::QueryTrace* trace, const PlannerStats& fact,
                         const AnalyzedQuery& query,
                         const HorizontalStrategy& strategy, bool forced,
                         size_t dop, bool fused_candidate = false,
                         bool fused_chosen = false) {
  trace->strategy = std::string(HorizontalMethodName(strategy.method)) +
                    (strategy.hash_dispatch ? "+hash-dispatch" : "+naive-case");
  trace->strategy_source = forced ? "forced" : "advisor";
  const AnalyzedTerm* term = FirstByTerm(query);
  if (term == nullptr) return;
  std::vector<std::string> full_group = query.group_by;
  full_group.insert(full_group.end(), term->by_columns.begin(),
                    term->by_columns.end());
  CostModel model;
  Result<FactStats> stats =
      model.EstimateStats(fact, full_group, query.group_by, term->by_columns);
  if (!stats.ok()) return;
  FactStats s = stats.value();
  s.dop = static_cast<double>(dop < 1 ? 1 : dop);
  // Predict the cardinality of the first level the plan materializes, so the
  // "actual" read off the executed trace compares like with like: direct
  // methods aggregate straight to the result level D1..Dj, the from-FV
  // methods materialize FV at D1..Dj ∪ BY first.
  bool from_fv = strategy.method == HorizontalMethod::kCaseFromFV ||
                 strategy.method == HorizontalMethod::kSpjFromFV;
  // The fused pipeline materializes FVh (GROUP BY ∪ BY) first, like the
  // from-FV methods.
  trace->predicted_group_rows = from_fv || fused_chosen
                                    ? s.group_cardinality
                                    : s.totals_cardinality;
  for (HorizontalMethod method :
       {HorizontalMethod::kCaseDirect, HorizontalMethod::kCaseFromFV,
        HorizontalMethod::kSpjDirect, HorizontalMethod::kSpjFromFV}) {
    HorizontalStrategy candidate = strategy;
    candidate.method = method;
    trace->predicted_costs.push_back({HorizontalMethodName(method),
                                      model.HorizontalCost(s, candidate),
                                      !fused_chosen &&
                                          method == strategy.method});
  }
  if (fused_candidate) {
    trace->predicted_costs.push_back(
        {"fused-pipeline", model.FusedHorizontalCost(s), fused_chosen});
  }
}

// Planning metadata for a grouping-set lattice query: the executed mode,
// both candidates priced by the model, predicted finest-level cardinality.
void FillLatticeTrace(obs::QueryTrace* trace, const PlannerStats& fact,
                      const AnalyzedQuery& query, bool shared, bool forced,
                      size_t dop) {
  trace->strategy = shared ? "lattice-shared" : "lattice-per-level";
  trace->strategy_source = forced ? "forced" : "advisor";
  CostModel model;
  Result<std::vector<double>> level_rows =
      model.EstimateLatticeLevelRows(fact, query);
  Result<FactStats> stats =
      model.EstimateStats(fact, query.group_by, /*totals_by=*/{}, /*by=*/{});
  if (!level_rows.ok() || !stats.ok()) return;
  FactStats s = stats.value();
  s.dop = static_cast<double>(dop < 1 ? 1 : dop);
  trace->predicted_group_rows =
      level_rows.value().empty() ? s.group_cardinality : level_rows.value()[0];
  trace->predicted_costs.push_back(
      {"lattice-shared", model.LatticeSharedCost(s, level_rows.value()),
       shared});
  trace->predicted_costs.push_back(
      {"lattice-per-level", model.LatticePerLevelCost(s, level_rows.value()),
       !shared});
}

// Append-path delta-maintenance counters (process-wide, like the summary
// cache's own counters in core/summary_cache.cc).
obs::Counter& DeltaMergeCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_delta_merges_total",
      "Cached summaries maintained by delta-merge on append");
  return c;
}
obs::Counter& DeltaRecomputeCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_delta_recomputes_total",
      "Cached summaries dropped on append for lazy recompute");
  return c;
}
obs::Counter& DeltaRowsCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_summary_delta_rows_total", "Rows appended through AppendRows");
  return c;
}

// Renders multi-line text as the single-column "plan" table every surface
// (CSV, wire protocol, shell) prints without special casing.
Table TextToPlanTable(const std::string& text) {
  Schema schema;
  schema.AddColumn({"plan", DataType::kString});
  Table out(schema);
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    out.mutable_column(0).AppendString(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

// One-row result of an append statement.
Table AppendOutcomeTable(const AppendOutcome& outcome) {
  Schema schema;
  schema.AddColumn({"rows_appended", DataType::kInt64});
  schema.AddColumn({"summaries_merged", DataType::kInt64});
  schema.AddColumn({"summaries_recomputed", DataType::kInt64});
  Table out(schema);
  Status st = out.AppendRow(
      {Value::Int64(static_cast<int64_t>(outcome.rows_appended)),
       Value::Int64(static_cast<int64_t>(outcome.summaries_merged)),
       Value::Int64(static_cast<int64_t>(outcome.summaries_recomputed))});
  (void)st;
  return out;
}

// The finest aggregation level a plan materialized: rows_out of the first
// aggregate (or pivot) operator in execution order.
const obs::TraceNode* FindFirstAggregateOp(const obs::TraceNode& node) {
  if (node.label == "aggregate" || node.label == "pivot") return &node;
  for (const auto& child : node.children) {
    const obs::TraceNode* found = FindFirstAggregateOp(*child);
    if (found != nullptr) return found;
  }
  return nullptr;
}

}  // namespace

Result<AnalyzedQuery> PctDatabase::Prepare(const std::string& sql) const {
  PCTAGG_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  PCTAGG_ASSIGN_OR_RETURN(const Table* table,
                          catalog_.GetTable(stmt.from_table));
  return Analyze(stmt, table->schema());
}

Result<Table> PctDatabase::RunPlan(const Plan& plan, const AnalyzedQuery& query,
                                   bool use_cache,
                                   obs::QueryTrace* trace) const {
  Status st = plan.Execute(&catalog_, use_cache ? &summaries_ : nullptr, trace);
  if (!st.ok()) {
    plan.Cleanup(&catalog_);
    return st;
  }
  if (trace != nullptr) {
    const obs::TraceNode* agg = FindFirstAggregateOp(trace->root());
    if (agg != nullptr) {
      trace->actual_group_rows = static_cast<double>(agg->stats.rows_out);
    }
  }
  Result<Table*> result = catalog_.GetTable(plan.result_table());
  if (!result.ok()) {
    plan.Cleanup(&catalog_);
    return result.status();
  }
  Table out = std::move(*result.value());
  plan.Cleanup(&catalog_);
  return ApplyTail(std::move(out), query);
}

Result<Table> PctDatabase::Query(const std::string& sql,
                                 const QueryOptions& options) const {
  // EXPLAIN [ANALYZE] prefix: return the rendering as an ordinary
  // single-column result so every surface (CSV, wire protocol, shell) shows
  // it without special casing.
  PCTAGG_ASSIGN_OR_RETURN(ParsedStatement stmt_kind, ParseStatementKind(sql));
  if (stmt_kind.kind != ParsedStatement::Kind::kSelect) {
    return Status::InvalidArgument(
        "INSERT/COPY are write statements; run them through Execute()");
  }
  if (stmt_kind.explain) {
    Result<std::string> text = stmt_kind.analyze
                                   ? ExplainAnalyze(stmt_kind.select_sql,
                                                    options)
                                   : Explain(stmt_kind.select_sql);
    if (!text.ok()) return text.status();
    return TextToPlanTable(*text);
  }

  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, Prepare(sql));
  bool use_cache = options.use_summary_cache.value_or(summary_cache_enabled_);
  // Engine kernels called anywhere below this frame (planner steps run
  // synchronously on this thread) pick the knob up via CurrentDop().
  ScopedParallelism parallelism(options.degree_of_parallelism);
  const size_t dop = CurrentDop();
  obs::QueryTrace* trace = options.trace;
  if (trace != nullptr) {
    trace->query_class = QueryClassName(query.query_class);
  }
  // Grouping-set lattice: the shared-scan/per-level executor is the only
  // evaluator for CUBE/ROLLUP/GROUPING SETS, across every query class.
  if (query.has_grouping_sets) {
    PCTAGG_ASSIGN_OR_RETURN(const Table* fact,
                            catalog_.GetTable(query.table_name));
    std::string why;
    if (!LatticeSupported(query, &why)) {
      return Status::InvalidArgument("grouping sets: " + why);
    }
    const PlannerStats stats = StatsOf(query.table_name, *fact);
    const bool forced = options.lattice != LatticeMode::kAuto;
    const bool shared = forced ? options.lattice == LatticeMode::kShared
                               : advisor_.AdviseLatticeShared(stats, query,
                                                              dop);
    if (trace != nullptr) {
      FillLatticeTrace(trace, stats, query, shared, forced, dop);
    }
    PCTAGG_ASSIGN_OR_RETURN(
        Table out,
        ExecuteLatticeQuery(query, *fact, use_cache ? &summaries_ : nullptr,
                            trace, dop, shared));
    if (trace != nullptr) {
      const obs::TraceNode* agg = FindFirstAggregateOp(trace->root());
      if (agg != nullptr) {
        trace->actual_group_rows = static_cast<double>(agg->stats.rows_out);
      }
    }
    return ApplyTail(std::move(out), query);
  }
  switch (query.query_class) {
    case QueryClass::kProjection:
    case QueryClass::kVertical: {
      // Partial-lattice reuse: a plain GROUP BY whose grouping is subsumed
      // by a cached mergeable summary rolls up from the cache instead of
      // rescanning the fact table (same rows, same order, bit for bit on
      // integer measures).
      if (use_cache && query.query_class == QueryClass::kVertical) {
        bool answered = false;
        PCTAGG_ASSIGN_OR_RETURN(
            Table cached, AnswerFromCachedAncestor(query, &summaries_, trace,
                                                   dop, &answered));
        if (answered) {
          if (trace != nullptr) {
            trace->strategy = "cache-ancestor";
            trace->strategy_source = "cache";
          }
          return ApplyTail(std::move(cached), query);
        }
      }
      Table out;
      if (trace != nullptr) {
        trace->strategy = "direct";
        trace->strategy_source = "n/a";
        obs::TraceNode* node = trace->root().AddChild("select", sql);
        obs::ScopedTraceNode scope(node);
        PCTAGG_ASSIGN_OR_RETURN(out, EvaluateSimple(&catalog_, query));
      } else {
        PCTAGG_ASSIGN_OR_RETURN(out, EvaluateSimple(&catalog_, query));
      }
      return ApplyTail(std::move(out), query);
    }
    case QueryClass::kVpct: {
      PCTAGG_ASSIGN_OR_RETURN(const Table* fact,
                              catalog_.GetTable(query.table_name));
      const PlannerStats stats = StatsOf(query.table_name, *fact);
      // Fused-pipeline dispatch: only on the advisor path (a forced strategy
      // or the OLAP baseline is an explicit request for that plan), and only
      // for supported shapes. SET exec fused forces it past the cost model.
      const bool forced_strategy =
          options.vpct_strategy.has_value() || options.olap_baseline;
      bool fused = false;
      if (!forced_strategy &&
          options.execution != ExecutionMode::kMaterialized &&
          VpctPipelineSupported(query)) {
        fused = options.execution == ExecutionMode::kFused ||
                advisor_.AdviseVpctFused(stats, query, dop);
      }
      if (fused) {
        if (trace != nullptr) {
          FillVpctTrace(trace, stats, query, VpctStrategy{},
                        /*olap_baseline=*/false, /*forced=*/false, dop,
                        /*fused_candidate=*/true, /*fused_chosen=*/true);
          trace->strategy = "fused-pipeline";
          trace->strategy_source = options.execution == ExecutionMode::kFused
                                       ? "forced"
                                       : "advisor";
        }
        PCTAGG_ASSIGN_OR_RETURN(
            Table out,
            ExecuteVpctPipeline(query, *fact,
                                use_cache ? &summaries_ : nullptr, trace,
                                dop));
        if (trace != nullptr) {
          const obs::TraceNode* agg = FindFirstAggregateOp(trace->root());
          if (agg != nullptr) {
            trace->actual_group_rows =
                static_cast<double>(agg->stats.rows_out);
          }
        }
        return ApplyTail(std::move(out), query);
      }
      Plan plan;
      VpctStrategy strategy;
      if (!options.olap_baseline) {
        if (options.vpct_strategy.has_value()) {
          strategy = *options.vpct_strategy;
        } else {
          strategy = advisor_.AdviseVpct(stats, query, dop);
        }
        PCTAGG_ASSIGN_OR_RETURN(plan, PlanVpctQuery(query, strategy));
      } else {
        PCTAGG_ASSIGN_OR_RETURN(plan, PlanOlapPercentageQuery(query));
      }
      if (trace != nullptr) {
        FillVpctTrace(trace, stats, query, strategy, options.olap_baseline,
                      forced_strategy, dop,
                      /*fused_candidate=*/!forced_strategy,
                      /*fused_chosen=*/false);
      }
      return RunPlan(plan, query, use_cache, trace);
    }
    case QueryClass::kHorizontal: {
      PCTAGG_ASSIGN_OR_RETURN(const Table* fact,
                              catalog_.GetTable(query.table_name));
      const PlannerStats stats = StatsOf(query.table_name, *fact);
      const bool forced_strategy = options.horizontal_strategy.has_value();
      bool fused = false;
      if (!forced_strategy &&
          options.execution != ExecutionMode::kMaterialized &&
          HorizontalPipelineSupported(query, fact->num_rows())) {
        fused = options.execution == ExecutionMode::kFused ||
                advisor_.AdviseHorizontalFused(stats, query, dop);
      }
      if (fused) {
        if (trace != nullptr) {
          FillHorizontalTrace(trace, stats, query, HorizontalStrategy{},
                              /*forced=*/false, dop,
                              /*fused_candidate=*/true,
                              /*fused_chosen=*/true);
          trace->strategy = "fused-pipeline";
          trace->strategy_source = options.execution == ExecutionMode::kFused
                                       ? "forced"
                                       : "advisor";
        }
        PCTAGG_ASSIGN_OR_RETURN(
            Table out,
            ExecuteHorizontalPipeline(query, *fact,
                                      use_cache ? &summaries_ : nullptr,
                                      trace, dop));
        if (trace != nullptr) {
          const obs::TraceNode* agg = FindFirstAggregateOp(trace->root());
          if (agg != nullptr) {
            trace->actual_group_rows =
                static_cast<double>(agg->stats.rows_out);
          }
        }
        return ApplyTail(std::move(out), query);
      }
      HorizontalStrategy strategy;
      if (options.horizontal_strategy.has_value()) {
        strategy = *options.horizontal_strategy;
      } else {
        strategy = advisor_.AdviseHorizontal(stats, query, dop);
      }
      PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanHorizontalQuery(query, strategy));
      if (trace != nullptr) {
        FillHorizontalTrace(trace, stats, query, strategy, forced_strategy,
                            dop, /*fused_candidate=*/!forced_strategy,
                            /*fused_chosen=*/false);
      }
      return RunPlan(plan, query, use_cache, trace);
    }
    case QueryClass::kWindow: {
      if (trace != nullptr) {
        trace->strategy = "OLAP-window";
        trace->strategy_source = "n/a";
      }
      PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanWindowQuery(query));
      return RunPlan(plan, query, use_cache, trace);
    }
  }
  return Status::Internal("unhandled query class");
}

Result<std::string> PctDatabase::ExplainAnalyze(
    const std::string& sql, const QueryOptions& options) const {
  obs::QueryTrace trace;
  QueryOptions traced = options;
  traced.trace = &trace;
  Stopwatch timer;
  PCTAGG_ASSIGN_OR_RETURN(Table result, Query(sql, traced));
  trace.total_ms = timer.ElapsedSeconds() * 1e3;
  (void)result;
  return trace.Render();
}

Result<Table> PctDatabase::QueryVpct(const std::string& sql,
                                     const VpctStrategy& strategy) const {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, Prepare(sql));
  if (query.has_grouping_sets) {
    return Status::InvalidArgument(
        "forced-strategy evaluation does not support grouping sets; use "
        "Query()");
  }
  PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanVpctQuery(query, strategy));
  return RunPlan(plan, query, summary_cache_enabled_);
}

Result<Table> PctDatabase::QueryHorizontal(
    const std::string& sql, const HorizontalStrategy& strategy) const {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, Prepare(sql));
  if (query.has_grouping_sets) {
    return Status::InvalidArgument(
        "forced-strategy evaluation does not support grouping sets; use "
        "Query()");
  }
  PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanHorizontalQuery(query, strategy));
  return RunPlan(plan, query, summary_cache_enabled_);
}

Result<Table> PctDatabase::QueryOlapBaseline(const std::string& sql) const {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, Prepare(sql));
  if (query.has_grouping_sets) {
    return Status::InvalidArgument(
        "the OLAP baseline does not support grouping sets; use Query()");
  }
  PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanOlapPercentageQuery(query));
  return RunPlan(plan, query, summary_cache_enabled_);
}

Status PctDatabase::CreateTable(const std::string& name, Table table) {
  summaries_.InvalidateTable(name);
  PCTAGG_RETURN_IF_ERROR(catalog_.CreateTable(name, std::move(table)));
  PCTAGG_ASSIGN_OR_RETURN(const Table* stored, catalog_.GetTable(name));
  KeepStats(name, *stored);
  if (storage_ != nullptr) {
    // DDL persists its full image immediately (tables are created rarely);
    // the new segment's flush LSN supersedes any same-named WAL history.
    return storage_->PersistTable(ToLower(name), *stored);
  }
  return Status::OK();
}

Status PctDatabase::ReplaceTable(const std::string& name, Table table) {
  summaries_.InvalidateTable(name);
  catalog_.CreateOrReplaceTable(name, std::move(table));
  PCTAGG_ASSIGN_OR_RETURN(const Table* stored, catalog_.GetTable(name));
  KeepStats(name, *stored);
  if (storage_ != nullptr) {
    return storage_->PersistTable(ToLower(name), *stored);
  }
  return Status::OK();
}

Result<PlannerStats> PctDatabase::PlannerStatistics(
    const std::string& name) const {
  PCTAGG_ASSIGN_OR_RETURN(const Table* table, catalog_.GetTable(name));
  return StatsOf(name, *table);
}

PlannerStats PctDatabase::StatsOf(const std::string& name,
                                  const Table& table) const {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto it = table_stats_.find(ToLower(name));
    if (it != table_stats_.end() && it->second.Describes(table)) {
      return PlannerStats(table, it->second);
    }
  }
  // A table changed behind this database's back (through catalog()):
  // sample it for this query without keeping the result.
  return PlannerStats::Sample(table);
}

void PctDatabase::KeepStats(const std::string& name, const Table& table,
                            bool appended) {
  const std::string key = ToLower(name);
  TableStats stats;
  if (appended) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    auto it = table_stats_.find(key);
    if (it != table_stats_.end()) stats = it->second;
  }
  // Extend samples every column of a record that does not match the table,
  // so a missing or replaced entry is collected in full.
  stats.Extend(table);
  std::lock_guard<std::mutex> lock(stats_mu_);
  table_stats_[key] = std::move(stats);
}

Result<bool> PctDatabase::DropTable(const std::string& name, bool if_exists) {
  if (!catalog_.HasTable(name)) {
    if (if_exists) return false;
    return Status::NotFound("table not found: " + name);
  }
  summaries_.InvalidateTable(name);
  PCTAGG_RETURN_IF_ERROR(catalog_.DropTable(name));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    table_stats_.erase(ToLower(name));
  }
  if (storage_ != nullptr) {
    PCTAGG_RETURN_IF_ERROR(storage_->RemoveTable(ToLower(name)));
  }
  return true;
}

Status PctDatabase::OpenStorage(storage::StorageOptions options) {
  if (storage_ != nullptr) {
    return Status::InvalidArgument("storage already attached");
  }
  PCTAGG_ASSIGN_OR_RETURN(storage_,
                          storage::StorageManager::Open(std::move(options)));
  for (auto& [name, table] : storage_->TakeRecoveredTables()) {
    // The generation bump rejects any in-flight fills keyed to a previous
    // incarnation of the table; recovered tables start with a cold cache.
    summaries_.InvalidateTable(name);
    catalog_.CreateOrReplaceTable(name, std::move(table));
    PCTAGG_ASSIGN_OR_RETURN(const Table* recovered, catalog_.GetTable(name));
    KeepStats(name, *recovered);
  }
  return Status::OK();
}

Result<storage::StorageManager::CheckpointStats> PctDatabase::Checkpoint() {
  if (storage_ == nullptr) {
    // CHECKPOINT against an in-memory database succeeds with nothing to do,
    // so the SQL surface behaves uniformly.
    return storage::StorageManager::CheckpointStats{};
  }
  std::vector<std::pair<std::string, const Table*>> tables;
  for (const std::string& name : catalog_.TableNames()) {
    PCTAGG_ASSIGN_OR_RETURN(const Table* table,
                            std::as_const(catalog_).GetTable(name));
    tables.emplace_back(name, table);
  }
  return storage_->Checkpoint(tables);
}

Status PctDatabase::CreateTableAs(const std::string& name,
                                  const std::string& sql) {
  if (catalog_.HasTable(name)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  PCTAGG_ASSIGN_OR_RETURN(Table result, Query(sql));
  return CreateTable(name, std::move(result));
}

Result<AppendOutcome> PctDatabase::AppendRows(const std::string& name,
                                              const Table& delta,
                                              const QueryOptions& options) {
  AppendOutcome outcome;
  outcome.rows_appended = delta.num_rows();
  PCTAGG_ASSIGN_OR_RETURN(Table* base, catalog_.GetTable(name));
  if (delta.num_rows() == 0) return outcome;

  if (storage_ != nullptr) {
    // WAL-before-data. Validate compatibility first so nothing reaches the
    // log unless the in-memory apply below is guaranteed to succeed — a
    // logged record is replayed verbatim at recovery.
    if (delta.num_columns() != base->num_columns()) {
      return Status::InvalidArgument("append arity mismatch");
    }
    for (size_t i = 0; i < base->num_columns(); ++i) {
      if (base->schema().column(i).type != delta.schema().column(i).type) {
        return Status::TypeMismatch("append column type mismatch at position " +
                                    std::to_string(i));
      }
    }
    Result<uint64_t> logged = storage_->LogAppend(ToLower(name), delta);
    if (!logged.ok()) return logged.status();
  }

  ScopedParallelism parallelism(options.degree_of_parallelism);
  const size_t dop = CurrentDop();
  obs::QueryTrace* trace = options.trace;
  if (trace != nullptr) {
    trace->query_class = "append";
    trace->strategy = "delta-maintenance";
    trace->strategy_source =
        options.append_policy == AppendPolicy::kAuto ? "cost-model" : "forced";
  }
  obs::TraceNode* node =
      trace != nullptr
          ? trace->root().AddChild(
                "append", StrFormat("INSERT INTO %s (%zu rows)", name.c_str(),
                                    delta.num_rows()))
          : nullptr;
  obs::ScopedTraceNode scope(node);

  // Check out the table's cached summaries *before* growing the base rows:
  // every entry present now was filled from pre-append data (in-flight fills
  // from the old generation get rejected by the generation bump), so each
  // checked-out summary plus the delta reproduces the post-append summary.
  size_t dropped = 0;
  std::vector<SummaryCache::PendingMerge> pending =
      summaries_.BeginAppend(name, &dropped);
  outcome.summaries_recomputed += dropped;

  const double base_rows_before = static_cast<double>(base->num_rows());
  PCTAGG_RETURN_IF_ERROR(InsertInto(base, delta));
  KeepStats(name, *base, /*appended=*/true);

  CostModel model;
  for (const SummaryCache::PendingMerge& p : pending) {
    const std::string group_cols = Join(p.recipe.group_by, ",");
    const double summary_rows = static_cast<double>(p.summary->num_rows());
    const double merge_cost = model.DeltaMergeCost(
        static_cast<double>(delta.num_rows()), summary_rows,
        static_cast<double>(dop));
    const double recompute_cost =
        model.RecomputeCost(base_rows_before + delta.num_rows(), summary_rows,
                            static_cast<double>(dop));
    bool merge;
    switch (options.append_policy) {
      case AppendPolicy::kMerge:
        merge = true;
        break;
      case AppendPolicy::kRecompute:
        merge = false;
        break;
      case AppendPolicy::kAuto:
      default:
        merge = merge_cost <= recompute_cost;
    }
    if (trace != nullptr) {
      trace->predicted_costs.push_back(
          {"delta-merge[" + group_cols + "]", merge_cost, merge});
      trace->predicted_costs.push_back(
          {"recompute[" + group_cols + "]", recompute_cost, !merge});
    }
    if (merge) {
      Result<Table> delta_summary =
          HashAggregate(delta, p.recipe.group_by, p.recipe.aggs, dop);
      if (delta_summary.ok()) {
        Result<Table> merged =
            MergeSummaries(*p.summary, *delta_summary,
                           p.recipe.group_by.size(), p.recipe.aggs);
        if (merged.ok() && summaries_.CompleteMerge(p, *merged)) {
          ++outcome.summaries_merged;
          DeltaMergeCounter().Add();
          continue;
        }
      }
      // A failed or superseded merge degrades to the drop-and-recompute
      // path — the entry simply stays out of the cache.
    }
    ++outcome.summaries_recomputed;
    DeltaRecomputeCounter().Add();
  }
  DeltaRowsCounter().Add(delta.num_rows());
  return outcome;
}

Result<AppendOutcome> PctDatabase::ExecuteInsert(const std::string& sql,
                                                 const QueryOptions& options) {
  PCTAGG_ASSIGN_OR_RETURN(InsertStatement stmt, ParseInsert(sql));
  PCTAGG_ASSIGN_OR_RETURN(const Table* base, catalog_.GetTable(stmt.table));
  PCTAGG_ASSIGN_OR_RETURN(Table delta,
                          BuildInsertDelta(stmt, base->schema()));
  return AppendRows(stmt.table, delta, options);
}

Result<AppendOutcome> PctDatabase::ExecuteCopy(const std::string& sql,
                                               const QueryOptions& options) {
  PCTAGG_ASSIGN_OR_RETURN(CopyStatement stmt, ParseCopy(sql));
  PCTAGG_ASSIGN_OR_RETURN(const Table* base, catalog_.GetTable(stmt.table));
  PCTAGG_ASSIGN_OR_RETURN(Table delta,
                          ReadCsvFile(stmt.path, base->schema()));
  return AppendRows(stmt.table, delta, options);
}

Result<Table> PctDatabase::Execute(const std::string& sql,
                                   const QueryOptions& options) {
  PCTAGG_ASSIGN_OR_RETURN(ParsedStatement stmt_kind, ParseStatementKind(sql));
  if (stmt_kind.kind == ParsedStatement::Kind::kSelect) {
    return Query(sql, options);
  }
  if (stmt_kind.kind == ParsedStatement::Kind::kDrop) {
    PCTAGG_ASSIGN_OR_RETURN(DropStatement stmt,
                            ParseDrop(stmt_kind.select_sql));
    if (stmt_kind.explain) {
      return TextToPlanTable(
          stmt.ToString() +
          "\n-- drop path: remove the table from the catalog, invalidate its\n"
          "-- cached summaries (generation bump), and delete its segment file\n"
          "-- and manifest entry when a data directory is attached.\n");
    }
    PCTAGG_ASSIGN_OR_RETURN(bool proceed, AnalyzeDrop(stmt, catalog_));
    bool dropped = false;
    if (proceed) {
      PCTAGG_ASSIGN_OR_RETURN(dropped, DropTable(stmt.table, stmt.if_exists));
    }
    Schema schema;
    schema.AddColumn({"dropped", DataType::kInt64});
    Table out(schema);
    (void)out.AppendRow({Value::Int64(dropped ? 1 : 0)});
    return out;
  }
  if (stmt_kind.kind == ParsedStatement::Kind::kCheckpoint) {
    if (stmt_kind.explain) {
      return TextToPlanTable(
          "CHECKPOINT;\n"
          "-- checkpoint path: write every base table to a fresh checksummed\n"
          "-- segment, start a fresh WAL, atomically publish the new manifest,\n"
          "-- then delete the previous generation's files.\n");
    }
    PCTAGG_ASSIGN_OR_RETURN(storage::StorageManager::CheckpointStats stats,
                            Checkpoint());
    Schema schema;
    schema.AddColumn({"tables", DataType::kInt64});
    schema.AddColumn({"rows", DataType::kInt64});
    schema.AddColumn({"bytes", DataType::kInt64});
    schema.AddColumn({"ms", DataType::kFloat64});
    Table out(schema);
    (void)out.AppendRow({Value::Int64(static_cast<int64_t>(stats.tables)),
                         Value::Int64(static_cast<int64_t>(stats.rows)),
                         Value::Int64(static_cast<int64_t>(stats.bytes)),
                         Value::Float64(stats.ms)});
    return out;
  }
  const bool is_insert = stmt_kind.kind == ParsedStatement::Kind::kInsert;
  if (stmt_kind.explain && !stmt_kind.analyze) {
    // Plain EXPLAIN of a write: describe the append script without running
    // it. The merge-vs-recompute choice is per cache entry at run time, so
    // the script lists the rule rather than a resolved plan.
    std::string text =
        stmt_kind.select_sql + "\n" +
        "-- append path: add rows to the base table (dictionary codes\n"
        "-- resolved against the existing per-column dictionaries), then for\n"
        "-- each cached summary of the table: aggregate only the delta with\n"
        "-- the entry's recipe and merge by keyed upsert, or drop the entry\n"
        "-- for lazy recompute (per-entry cost-model choice; see EXPLAIN\n"
        "-- ANALYZE for the resolved candidates).\n";
    return TextToPlanTable(text);
  }
  if (stmt_kind.explain) {
    obs::QueryTrace trace;
    QueryOptions traced = options;
    traced.trace = &trace;
    Stopwatch timer;
    Result<AppendOutcome> outcome =
        is_insert ? ExecuteInsert(stmt_kind.select_sql, traced)
                  : ExecuteCopy(stmt_kind.select_sql, traced);
    if (!outcome.ok()) return outcome.status();
    trace.total_ms = timer.ElapsedSeconds() * 1e3;
    return TextToPlanTable(trace.Render());
  }
  PCTAGG_ASSIGN_OR_RETURN(AppendOutcome outcome,
                          is_insert ? ExecuteInsert(stmt_kind.select_sql,
                                                    options)
                                    : ExecuteCopy(stmt_kind.select_sql,
                                                  options));
  return AppendOutcomeTable(outcome);
}

Result<std::string> PctDatabase::Explain(const std::string& sql) const {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, Prepare(sql));
  PCTAGG_ASSIGN_OR_RETURN(const Table* fact,
                          catalog_.GetTable(query.table_name));
  const PlannerStats stats = StatsOf(query.table_name, *fact);
  if (query.has_grouping_sets) {
    std::string why;
    if (!LatticeSupported(query, &why)) {
      return Status::InvalidArgument("grouping sets: " + why);
    }
    return RenderLatticeScript(query,
                               advisor_.AdviseLatticeShared(stats, query));
  }
  switch (query.query_class) {
    case QueryClass::kVpct: {
      VpctStrategy strategy = advisor_.AdviseVpct(stats, query);
      PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanVpctQuery(query, strategy));
      return plan.ToSql();
    }
    case QueryClass::kHorizontal: {
      HorizontalStrategy strategy = advisor_.AdviseHorizontal(stats, query);
      PCTAGG_ASSIGN_OR_RETURN(Plan plan, PlanHorizontalQuery(query, strategy));
      return plan.ToSql();
    }
    default:
      return std::string("/* evaluated directly, no generated script */\n");
  }
}

Result<Table> ApplyQueryTail(Table table, const AnalyzedQuery& query) {
  return ApplyTail(std::move(table), query);
}

}  // namespace pctagg
