#include "core/database.h"

#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/partial_plan.h"
#include "core/select_plan.h"
#include "engine/aggregate.h"
#include "engine/csv.h"
#include "engine/parallel.h"
#include "engine/table_ops.h"
#include "obs/metrics.h"
#include "sql/parser.h"

namespace pctagg {

namespace {

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

// Brings cached summary `existing` — `recipe` evaluated over the rows before
// an append — up to date with the appended rows `delta`: the delta's own
// summary is appended to a copy of it (translating dictionary codes) and the
// two roll up once. Old groups keep their positions and new groups follow in
// delta order, exactly as recomputing over old-then-new rows emits them.
Result<Table> MergeDelta(const Table& existing, const Table& delta,
                         const SummaryRecipe& recipe, size_t dop) {
  PCTAGG_ASSIGN_OR_RETURN(
      Table delta_summary,
      HashAggregate(delta, recipe.group_by, recipe.aggs, dop));
  Table both = existing;
  PCTAGG_RETURN_IF_ERROR(InsertInto(&both, delta_summary));
  // RollUp reads each partial from the column it names, but an aggregate's
  // alias may repeat a group column's name, so the inputs are renamed by
  // position first.
  std::vector<std::string> inputs;
  for (size_t a = 0; a < recipe.aggs.size(); ++a) {
    inputs.push_back("__delta" + std::to_string(a));
    PCTAGG_RETURN_IF_ERROR(
        both.RenameColumn(recipe.group_by.size() + a, inputs.back()));
  }
  return RollUp(recipe.aggs, both, recipe.group_by, inputs, dop);
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

// `sql` parsed once, for the entry points that take only a plain SELECT.
Result<Statement> ParseQuery(const std::string& sql) {
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect || stmt.explain) {
    return Status::InvalidArgument("expected a plain SELECT statement");
  }
  return stmt;
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

Result<AnalyzedQuery> PctDatabase::PrepareQuery(
    const std::string& sql) const {
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseQuery(sql));
  return PrepareQuery(stmt.select);
}

Result<AnalyzedQuery> PctDatabase::PrepareQuery(
    const SelectStatement& stmt) const {
  PCTAGG_ASSIGN_OR_RETURN(const Table* table,
                          catalog_.GetTable(stmt.from_table));
  return Analyze(stmt, table->schema());
}

Result<Table> PctDatabase::Query(const std::string& sql,
                                 const QueryOptions& options) const {
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument(
        "INSERT, COPY, DROP, CHECKPOINT and CREATE TABLE AS are write "
        "statements; run them through Execute()");
  }
  return Read(stmt, options);
}

Result<Table> PctDatabase::Read(const Statement& stmt,
                                const QueryOptions& options) const {
  if (stmt.explain) {
    // The rendering comes back as an ordinary single-column result so every
    // surface (CSV, wire protocol, shell) shows it without special casing.
    PCTAGG_ASSIGN_OR_RETURN(std::string text,
                            ExplainSelect(stmt, stmt.analyze, options));
    return TextToPlanTable(text);
  }
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, PrepareQuery(stmt.select));
  return Select(query, stmt.text, options, /*partial_forced=*/false);
}

Result<Table> PctDatabase::QueryPartial(const std::string& sql,
                                        const QueryOptions& options) const {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, PrepareQuery(sql));
  std::string why;
  if (!PartialPlanSupported(query, &why)) {
    return Status::InvalidArgument("no partial plan: " + why);
  }
  return Select(query, sql, options, /*partial_forced=*/true);
}

Result<SelectPlan> PctDatabase::Lower(const AnalyzedQuery& query,
                                      const std::string& sql,
                                      const QueryOptions& options,
                                      bool partial_forced,
                                      const MqoBatchScan* batch) const {
  PCTAGG_ASSIGN_OR_RETURN(const Table* fact,
                          catalog_.GetTable(query.table_name));
  const std::shared_ptr<const ShardedTable> sharded =
      Sharding(query.table_name);
  return PlanSelect(query, sql, StatsOf(query.table_name, *fact), options,
                    CurrentDop(), partial_forced,
                    sharded ? sharded->shards : nullptr, batch);
}

Result<Table> PctDatabase::Select(const AnalyzedQuery& query,
                                  const std::string& sql,
                                  const QueryOptions& options,
                                  bool partial_forced,
                                  const MqoBatchScan* batch) const {
  // Engine kernels called anywhere below this frame (the steps run
  // synchronously on this thread) pick the knob up via CurrentDop().
  ScopedParallelism parallelism(options.degree_of_parallelism);
  PCTAGG_ASSIGN_OR_RETURN(SelectPlan plan,
                          Lower(query, sql, options, partial_forced, batch));
  obs::QueryTrace* trace = options.trace;
  if (trace != nullptr) static_cast<obs::PlanHeader&>(*trace) = plan.header;
  const bool use_cache =
      options.use_summary_cache.value_or(summary_cache_enabled_);
  PCTAGG_ASSIGN_OR_RETURN(
      Table out, plan.steps.Execute(&catalog_,
                                    use_cache ? &summaries_ : nullptr, trace));
  if (trace != nullptr && trace->actual_group_rows < 0) {
    // A script's finest level: the first aggregate it ran.
    const obs::TraceNode* agg = FindFirstAggregateOp(trace->root());
    if (agg != nullptr) {
      trace->actual_group_rows = static_cast<double>(agg->stats.rows_out);
    }
  }
  return ApplyQueryTail(std::move(out), query);
}

Result<std::shared_ptr<const Table>> PctDatabase::Partials(
    const std::string& table, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    bool use_cache, obs::QueryTrace* trace, size_t dop) const {
  const std::shared_ptr<const ShardedTable> sharded = Sharding(table);
  return FinestPartials(table, where, cols, partials, &catalog_,
                        use_cache ? &summaries_ : nullptr, trace, dop,
                        sharded ? sharded->shards : nullptr);
}

Result<std::string> PctDatabase::Explain(const std::string& sql,
                                         const QueryOptions& options) const {
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseQuery(sql));
  return ExplainSelect(stmt, /*analyze=*/false, options);
}

Result<std::string> PctDatabase::ExplainAnalyze(
    const std::string& sql, const QueryOptions& options) const {
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseQuery(sql));
  return ExplainSelect(stmt, /*analyze=*/true, options);
}

Result<std::string> PctDatabase::ExplainSelect(
    const Statement& stmt, bool analyze, const QueryOptions& options) const {
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, PrepareQuery(stmt.select));
  if (analyze) {
    return ExplainAnalyzed(options, [&](const QueryOptions& traced) {
      return Select(query, stmt.text, traced, /*partial_forced=*/false)
          .status();
    });
  }
  // The dop Query would resolve, so the advisor prices the same candidates.
  ScopedParallelism parallelism(options.degree_of_parallelism);
  PCTAGG_ASSIGN_OR_RETURN(
      SelectPlan plan, Lower(query, stmt.text, options,
                             /*partial_forced=*/false, /*batch=*/nullptr));
  return plan.Explain();
}

Result<Table> PctDatabase::QueryVpct(const std::string& sql,
                                     const VpctStrategy& strategy) const {
  QueryOptions options;
  options.vpct_strategy = strategy;
  return Query(sql, options);
}

Result<Table> PctDatabase::QueryHorizontal(
    const std::string& sql, const HorizontalStrategy& strategy) const {
  QueryOptions options;
  options.horizontal_strategy = strategy;
  return Query(sql, options);
}

Result<Table> PctDatabase::QueryOlapBaseline(const std::string& sql) const {
  QueryOptions options;
  options.olap_baseline = true;
  return Query(sql, options);
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
    std::lock_guard<std::mutex> lock(records_mu_);
    auto it = records_.find(ToLower(name));
    if (it != records_.end() && it->second.sharded != nullptr) {
      return it->second.sharded->stats;
    }
    if (it != records_.end() && it->second.stats.Describes(table)) {
      return PlannerStats(table, it->second.stats);
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
    std::lock_guard<std::mutex> lock(records_mu_);
    auto it = records_.find(key);
    if (it != records_.end()) stats = it->second.stats;
  }
  // Extend samples every column of a record that does not match the table,
  // so a missing or replaced entry is collected in full.
  stats.Extend(table);
  std::lock_guard<std::mutex> lock(records_mu_);
  records_[key] = {std::move(stats), nullptr};
}

Status PctDatabase::InstallShards(const std::string& name,
                                  ShardedTable sharded) {
  PCTAGG_ASSIGN_OR_RETURN(const Table* full, catalog_.GetTable(name));
  // The stub keeps the schema; ReplaceTable invalidates the table's cached
  // summaries and ends any earlier sharding.
  PCTAGG_RETURN_IF_ERROR(ReplaceTable(name, Table(full->schema())));
  std::lock_guard<std::mutex> lock(records_mu_);
  records_[ToLower(name)].sharded =
      std::make_shared<const ShardedTable>(std::move(sharded));
  return Status::OK();
}

std::shared_ptr<const ShardedTable> PctDatabase::Sharding(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(records_mu_);
  auto it = records_.find(ToLower(name));
  return it == records_.end() ? nullptr : it->second.sharded;
}

Result<Table*> PctDatabase::AppendTarget(const std::string& name) {
  if (Sharding(name) != nullptr) {
    return Status::InvalidArgument(
        "table '" + name +
        "' is sharded and read-only; reload the base table and re-issue "
        "SHARD to change its rows");
  }
  return catalog_.GetTable(name);
}

Result<bool> PctDatabase::DropTable(const std::string& name, bool if_exists) {
  if (!catalog_.HasTable(name)) {
    if (if_exists) return false;
    return Status::NotFound("table not found: " + name);
  }
  if (const std::shared_ptr<const ShardedTable> sharded = Sharding(name)) {
    // Workers first: a failed fan-out leaves the table sharded and whole.
    PCTAGG_RETURN_IF_ERROR(sharded->shards->Drop(name));
  }
  summaries_.InvalidateTable(name);
  PCTAGG_RETURN_IF_ERROR(catalog_.DropTable(name));
  {
    std::lock_guard<std::mutex> lock(records_mu_);
    records_.erase(ToLower(name));
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
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseQuery(sql));
  stmt.kind = Statement::Kind::kCreateTableAs;
  stmt.table = name;
  return Execute(stmt, QueryOptions{}).status();
}

Result<AppendOutcome> PctDatabase::AppendRows(const std::string& name,
                                              const Table& delta,
                                              const QueryOptions& options) {
  AppendOutcome outcome;
  outcome.rows_appended = delta.num_rows();
  PCTAGG_ASSIGN_OR_RETURN(Table* base, AppendTarget(name));
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
      Result<Table> merged = MergeDelta(*p.summary, delta, p.recipe, dop);
      if (merged.ok() && summaries_.CompleteMerge(p, *merged)) {
        ++outcome.summaries_merged;
        DeltaMergeCounter().Add();
        continue;
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

Result<Table> PctDatabase::Execute(const std::string& sql,
                                   const QueryOptions& options) {
  PCTAGG_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return Execute(stmt, options);
}

Result<Table> PctDatabase::Execute(const Statement& stmt,
                                   const QueryOptions& options) {
  if (stmt.kind == Statement::Kind::kSelect) return Read(stmt, options);
  if (stmt.kind == Statement::Kind::kCreateTableAs) {
    if (catalog_.HasTable(stmt.table)) {
      return Status::AlreadyExists("table already exists: " + stmt.table);
    }
    PCTAGG_ASSIGN_OR_RETURN(Table result, Read(stmt, options));
    PCTAGG_RETURN_IF_ERROR(CreateTable(stmt.table, std::move(result)));
    return Table();
  }
  if (stmt.kind == Statement::Kind::kDrop) {
    if (stmt.explain) {
      return TextToPlanTable(
          stmt.drop.ToString() +
          "\n-- drop path: remove the table from the catalog, invalidate its\n"
          "-- cached summaries (generation bump), and delete its segment file\n"
          "-- and manifest entry when a data directory is attached. A sharded\n"
          "-- table is dropped on every worker first.\n");
    }
    PCTAGG_ASSIGN_OR_RETURN(bool dropped,
                            DropTable(stmt.drop.table, stmt.drop.if_exists));
    Schema schema;
    schema.AddColumn({"dropped", DataType::kInt64});
    Table out(schema);
    (void)out.AppendRow({Value::Int64(dropped ? 1 : 0)});
    return out;
  }
  if (stmt.kind == Statement::Kind::kCheckpoint) {
    if (stmt.explain) {
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
  if (stmt.explain && !stmt.analyze) {
    // Plain EXPLAIN of a write: describe the append script without running
    // it. The merge-vs-recompute choice is per cache entry at run time, so
    // the script lists the rule rather than a resolved plan.
    std::string text =
        stmt.text + "\n" +
        "-- append path: add rows to the base table (dictionary codes\n"
        "-- resolved against the existing per-column dictionaries), then for\n"
        "-- each cached summary of the table: aggregate only the delta with\n"
        "-- the entry's recipe and roll it up with the entry, or drop the\n"
        "-- entry for lazy recompute (per-entry cost-model choice; see\n"
        "-- EXPLAIN ANALYZE for the resolved candidates).\n";
    return TextToPlanTable(text);
  }
  if (stmt.explain) {
    PCTAGG_ASSIGN_OR_RETURN(
        std::string text,
        ExplainAnalyzed(options, [&](const QueryOptions& traced) {
          return Append(stmt, traced).status();
        }));
    return TextToPlanTable(text);
  }
  PCTAGG_ASSIGN_OR_RETURN(AppendOutcome outcome, Append(stmt, options));
  return AppendOutcomeTable(outcome);
}

Result<AppendOutcome> PctDatabase::Append(const Statement& stmt,
                                          const QueryOptions& options) {
  const bool insert = stmt.kind == Statement::Kind::kInsert;
  const std::string& name = insert ? stmt.insert.table : stmt.copy.table;
  PCTAGG_ASSIGN_OR_RETURN(const Table* base, AppendTarget(name));
  PCTAGG_ASSIGN_OR_RETURN(
      Table delta, insert ? BuildInsertDelta(stmt.insert, base->schema())
                          : ReadCsvFile(stmt.copy.path, base->schema()));
  return AppendRows(name, delta, options);
}

Result<Table> ApplyQueryTail(Table table, const AnalyzedQuery& query) {
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

Result<std::string> ExplainAnalyzed(
    const QueryOptions& options,
    const std::function<Status(const QueryOptions& traced)>& run) {
  obs::QueryTrace trace;
  QueryOptions traced = options;
  traced.trace = &trace;
  Stopwatch timer;
  PCTAGG_RETURN_IF_ERROR(run(traced));
  trace.total_ms = timer.ElapsedMillis();
  return trace.Render();
}

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

}  // namespace pctagg
