#ifndef PCTAGG_CORE_DATABASE_H_
#define PCTAGG_CORE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/horizontal_planner.h"
#include "core/table_stats.h"
#include "core/vpct_planner.h"
#include "engine/aggregate.h"
#include "engine/catalog.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "sql/parser.h"
#include "storage/storage.h"

namespace pctagg {

// How an append maintains the cached summaries of its table. kAuto asks the
// CostModel per entry (delta cardinality vs base cardinality, dop-aware);
// the forced modes exist for benchmarking and tests.
enum class AppendPolicy {
  kAuto,
  kMerge,      // always delta-merge mergeable entries
  kRecompute,  // always drop entries (recompute lazily on next lookup)
};

// Whether the server's multi-query batching gate (server/mqo_gate.h;
// SET mqo in sessions) may merge a statement into a shared scan with
// concurrently admitted compatible reads (core/mqo_plan.h). kAuto prices
// batch-vs-solo with CostModel::MqoBatchCost; kOn always batches compatible
// queries; kOff never batches. Embedded PctDatabase::Query ignores the
// setting — batching happens at server admission, above the database.
enum class MqoMode {
  kAuto,
  kOn,
  kOff,
};

// Per-call overrides for PctDatabase::Query. Server sessions carry one of
// these so concurrent callers can force strategies or toggle the summary
// cache without mutating shared database state.
struct QueryOptions {
  // Force the Vpct / horizontal evaluation strategy instead of asking the
  // StrategyAdvisor: the paper's materialized plan runs.
  std::optional<VpctStrategy> vpct_strategy;
  std::optional<HorizontalStrategy> horizontal_strategy;
  // Overrides EnableSummaryCache() for this call only.
  std::optional<bool> use_summary_cache;
  // Evaluate a Vpct query through the ANSI OLAP window-function baseline.
  bool olap_baseline = false;
  // Multi-query shared-scan batching (see MqoMode above; SET mqo).
  MqoMode mqo = MqoMode::kAuto;
  // Degree of parallelism for the engine's morsel-driven operator kernels
  // (aggregate, pivot, join probe, window). 1 = serial (default), 0 = auto
  // (the shared worker pool's size), n = use up to n workers. Results are
  // identical at every setting apart from float-sum rounding — see
  // docs/PARALLELISM.md.
  size_t degree_of_parallelism = 1;
  // When set, Query fills it with the executed-plan trace: planning metadata
  // (query class, strategy, cost-model predictions) plus one node per plan
  // step with per-operator stats. Owned by the caller; must
  // outlive the Query call. See docs/OBSERVABILITY.md.
  obs::QueryTrace* trace = nullptr;
  // Summary-maintenance policy when Execute runs an INSERT/COPY.
  AppendPolicy append_policy = AppendPolicy::kAuto;
};

class ShardFetch;     // core/partial_plan.h
struct MqoBatchScan;  // core/mqo_plan.h
struct SelectPlan;    // core/select_plan.h

// A base table whose rows live on shards (docs/SHARDING.md). The catalog
// keeps a zero-row stub of it, so the analyzer sees its schema; this record
// keeps the rest.
struct ShardedTable {
  std::string key_column;  // the column SHARD hash-partitioned on
  // The full table's planner statistics, resolved before its rows left.
  PlannerStats stats;
  // Scatters one PARTIAL and gathers the replies; not owned, outlives the
  // sharding.
  ShardFetch* shards = nullptr;
};

// What an append did, returned by AppendRows/Execute(INSERT/COPY).
struct AppendOutcome {
  size_t rows_appended = 0;
  size_t summaries_merged = 0;      // cache entries delta-merged in place
  size_t summaries_recomputed = 0;  // entries dropped for lazy recompute
};

// The top-level facade: a catalog of tables plus the percentage-query
// framework. This is the piece the paper's Java program played — take a
// query written with the proposed aggregations, generate the evaluation
// plan, run it against the (here: embedded) engine. Each entry point
// parses its statement once (ParseStatement, sql/parser.h): Execute runs
// any statement, Query a SELECT or its EXPLAIN forms.
//
//   PctDatabase db;
//   db.CreateTable("sales", BuildSalesTable());
//   Result<Table> r = db.Query(
//       "SELECT state, city, Vpct(salesAmt BY city) "
//       "FROM sales GROUP BY state, city ORDER BY state, city");
class PctDatabase {
 public:
  PctDatabase() = default;

  PctDatabase(const PctDatabase&) = delete;
  PctDatabase& operator=(const PctDatabase&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  // Registers a new base table (and, with storage attached, writes its
  // segment and manifest entry).
  Status CreateTable(const std::string& name, Table table);

  // Enables/disables the cross-query shared-summary cache (paper future
  // work: repeated percentage queries on the same table reuse the Fk-level
  // aggregate instead of re-scanning F). Off by default. Assumes base
  // tables are only replaced through CreateTable/ReplaceTable.
  void EnableSummaryCache(bool enabled) { summary_cache_enabled_ = enabled; }
  bool summary_cache_enabled() const { return summary_cache_enabled_; }
  SummaryCache& summaries() { return summaries_; }

  // Parses and analyzes a plain SELECT against the current catalog without
  // executing it; any other statement, or an EXPLAIN of one, is
  // InvalidArgument. The second form analyzes a SELECT ParseStatement
  // already parsed: the server's MQO batching gate (server/mqo_gate.h)
  // extracts a statement's partial requirements with it. Callers hold the
  // same reader lock they would hold for Query.
  Result<AnalyzedQuery> PrepareQuery(const std::string& sql) const;
  Result<AnalyzedQuery> PrepareQuery(const SelectStatement& stmt) const;

  // Runs a SELECT that PrepareQuery analyzed (`sql` is its text) as Query
  // would, parsing nothing again. `batch`, the published MQO batch scan the
  // query was a member of (core/mqo_plan.h), is one more source of partials
  // for PlanSelect; a member it answers skips the cache.
  Result<Table> QueryPrepared(const AnalyzedQuery& query,
                              const std::string& sql,
                              const QueryOptions& options,
                              const MqoBatchScan* batch = nullptr) const {
    return Select(query, sql, options, /*partial_forced=*/false, batch);
  }

  // Replaces a base table, invalidating its cached summaries (and, with
  // storage attached, superseding its segment and any earlier WAL records).
  Status ReplaceTable(const std::string& name, Table table);

  // The planner statistics of base table `name` (core/table_stats.h): the
  // record kept with the table, resolved against its live row count and
  // dictionaries. Every writer below keeps the record current, so this
  // samples no rows. NotFound when the table does not exist.
  Result<PlannerStats> PlannerStatistics(const std::string& name) const;

  // Drops a base table from the catalog, its cached summaries, and (with
  // storage attached) its segment file and manifest entry; a sharded table
  // is dropped on every worker first. Returns true when a table was
  // dropped, false for the benign if_exists-and-absent case.
  Result<bool> DropTable(const std::string& name, bool if_exists = false);

  // --- Sharded tables (docs/SHARDING.md) -----------------------------------
  //
  // Replaces base table `name` — whose rows the caller has already shipped
  // to `sharded.shards` — with a zero-row stub of its schema and records it
  // as sharded. From then on every read of it fetches finest-level partials
  // from the shards (ShardFetch, core/partial_plan.h), any other
  // evaluation of it gets DistributedError, appends are refused, and DROP
  // reaches the workers. CreateTable/ReplaceTable of the name end the
  // sharding.
  Status InstallShards(const std::string& name, ShardedTable sharded);

  // The record of sharded table `name`; null for a local or unknown one.
  std::shared_ptr<const ShardedTable> Sharding(const std::string& name) const;

  // `partials` over base table `table` (filtered by `where`) grouped by
  // `cols`: FinestPartials over the table's rows, or its shards when it is
  // sharded, fronted by the summary cache when `use_cache`. An MQO batch's
  // leader reads its union level through it.
  Result<std::shared_ptr<const Table>> Partials(
      const std::string& table, const ExprPtr& where,
      const std::vector<std::string>& cols,
      const std::vector<AggSpec>& partials, bool use_cache,
      obs::QueryTrace* trace, size_t dop) const;

  // --- Durable storage (optional) ------------------------------------------
  //
  // Attaches a data directory: recovers its tables into the catalog
  // (manifest -> segments -> WAL tail), then makes every subsequent append
  // WAL-logged (WAL-before-data) and every DDL segment-backed. Call once,
  // before serving traffic; without it the database is purely in-memory.
  Status OpenStorage(storage::StorageOptions options);
  bool HasStorage() const { return storage_ != nullptr; }
  storage::StorageManager* storage() { return storage_.get(); }

  // Flushes every base table to fresh segments and truncates the WAL, under
  // the caller's writer exclusivity. A no-op (zero stats) without storage.
  Result<storage::StorageManager::CheckpointStats> Checkpoint();

  // Appends `delta` (same column arity/types as the table) to base table
  // `name` and delta-maintains its cached summaries: the delta is aggregated
  // once per mergeable cache entry with the entry's own recipe, appended to
  // the entry and rolled up once (RollUp, core/partial_plan.h); entries
  // whose aggregates are not distributive — or where the CostModel prefers
  // it — are dropped and recomputed lazily by the next query. Dictionary
  // codes of string columns are resolved against the table's existing
  // per-column dictionaries.
  //
  // This is a write: callers must keep it exclusive against concurrent
  // queries on the same database (the server's QueryExecutor runs every
  // write under its exclusive lock; library users synchronize themselves).
  Result<AppendOutcome> AppendRows(const std::string& name, const Table& delta) {
    return AppendRows(name, delta, QueryOptions{});
  }
  Result<AppendOutcome> AppendRows(const std::string& name, const Table& delta,
                                   const QueryOptions& options);

  // Runs any statement (sql/parser.h), parsed once: a SELECT and its EXPLAIN
  // forms as Query does; INSERT INTO ... VALUES and COPY ... FROM ...
  // (APPEND) through AppendRows, returning a one-row summary
  // (rows_appended, summaries_merged, summaries_recomputed); DROP TABLE
  // [IF EXISTS] and CHECKPOINT return one-row summaries too; CREATE TABLE
  // <t> AS <select> runs its SELECT with `options` and returns an empty
  // table. EXPLAIN ANALYZE runs an INSERT or COPY traced; every other
  // EXPLAIN form of a write only describes it. Non-const because writes
  // mutate the catalog; see AppendRows for the writer-exclusivity contract.
  // A SELECT only reads, so callers may run it under a reader lock.
  Result<Table> Execute(const std::string& sql) {
    return Execute(sql, QueryOptions{});
  }
  Result<Table> Execute(const std::string& sql, const QueryOptions& options);
  Result<Table> Execute(const Statement& stmt, const QueryOptions& options);

  // CREATE TABLE <name> AS <sql>, where `sql` is a plain SELECT:
  // materializes a query result as a new base table. This is how the
  // paper's "F can be a temporary table resulting from some query or a
  // view" works here — denormalize or pre-filter once, then run percentage
  // queries against the result.
  Status CreateTableAs(const std::string& name, const std::string& sql);

  // Parses, analyzes, plans (PlanSelect, core/select_plan.h), executes and
  // returns the result of a SELECT or of its EXPLAIN [ANALYZE] form; every
  // write, CREATE TABLE AS included, is InvalidArgument. Temporary tables
  // are cleaned up.
  //
  // Query is *logically* const and safe to call from many threads at once:
  // every table it materializes has a process-unique temporary name, the
  // catalog and summary cache are internally synchronized, and all temps are
  // dropped before returning. What it does NOT protect against is a
  // concurrent CreateTable/ReplaceTable/.load of a table some query is
  // reading — callers that mix queries with DDL must impose reader/writer
  // discipline themselves (the server's QueryExecutor does exactly that).
  Result<Table> Query(const std::string& sql) const {
    return Query(sql, QueryOptions{});
  }
  Result<Table> Query(const std::string& sql, const QueryOptions& options) const;

  // Query with QueryOptions::vpct_strategy, horizontal_strategy or
  // olap_baseline set, as SET vpct, SET horizontal and the OLAP verb send.
  Result<Table> QueryVpct(const std::string& sql,
                          const VpctStrategy& strategy) const;
  Result<Table> QueryHorizontal(const std::string& sql,
                                const HorizontalStrategy& strategy) const;
  Result<Table> QueryOlapBaseline(const std::string& sql) const;

  // Evaluates `sql` on the partial path (core/partial_plan.h) whatever the
  // advisor or `options` would pick; InvalidArgument with the support
  // gate's reason when the query has no partial plan.
  Result<Table> QueryPartial(const std::string& sql,
                             const QueryOptions& options) const;

  // Plain EXPLAIN: the plan Query would run for the plain SELECT `sql` under
  // `options` (SelectPlan::Explain, core/select_plan.h), without executing
  // it.
  Result<std::string> Explain(const std::string& sql) const {
    return Explain(sql, QueryOptions{});
  }
  Result<std::string> Explain(const std::string& sql,
                              const QueryOptions& options) const;

  // EXPLAIN ANALYZE: executes the plain SELECT `sql` with tracing on and
  // returns the rendered executed plan (ExplainAnalyzed below). The query's
  // result table is discarded.
  Result<std::string> ExplainAnalyze(const std::string& sql) const {
    return ExplainAnalyze(sql, QueryOptions{});
  }
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const QueryOptions& options) const;

 private:
  // A SELECT statement, or its EXPLAIN [ANALYZE] form: Query's body.
  Result<Table> Read(const Statement& stmt, const QueryOptions& options) const;

  // EXPLAIN [ANALYZE] of the SELECT `stmt` holds.
  Result<std::string> ExplainSelect(const Statement& stmt, bool analyze,
                                    const QueryOptions& options) const;

  // An INSERT or COPY statement's body.
  Result<AppendOutcome> Append(const Statement& stmt,
                               const QueryOptions& options);

  // Plans and lowers `query` with PlanSelect at the caller's CurrentDop():
  // the one call Select runs and Explain prints.
  Result<SelectPlan> Lower(const AnalyzedQuery& query, const std::string& sql,
                           const QueryOptions& options, bool partial_forced,
                           const MqoBatchScan* batch) const;

  // Lowers `query` and executes its steps, then applies the tail.
  Result<Table> Select(const AnalyzedQuery& query, const std::string& sql,
                       const QueryOptions& options, bool partial_forced,
                       const MqoBatchScan* batch = nullptr) const;

  // Planner statistics of base table `name`, whose catalog entry is `table`:
  // the SHARD-time statistics when it is sharded.
  PlannerStats StatsOf(const std::string& name, const Table& table) const;

  // Records fresh statistics for base table `name` after a writer changed
  // it, ending any sharding of it; `appended` means rows were only added at
  // the end, so the kept record is extended instead of re-collected.
  void KeepStats(const std::string& name, const Table& table,
                 bool appended = false);

  // Base table `name` for a writer that adds rows; InvalidArgument when it
  // is sharded, whose rows only a reload and re-SHARD change.
  Result<Table*> AppendTarget(const std::string& name);

  // Mutable because Query() is logically const: it registers (and drops)
  // process-uniquely-named temporaries in the internally synchronized
  // catalog and fills the internally synchronized summary cache.
  mutable Catalog catalog_;
  mutable SummaryCache summaries_;
  // One record per base table, keyed by lower-cased name and kept current
  // by the same writers that invalidate summaries_: its planner statistics
  // and, while it is sharded, where its rows are.
  struct TableRecord {
    TableStats stats;
    std::shared_ptr<const ShardedTable> sharded;  // null: a local table
  };
  mutable std::mutex records_mu_;
  std::map<std::string, TableRecord> records_;
  bool summary_cache_enabled_ = false;
  std::unique_ptr<storage::StorageManager> storage_;
};

// Applies a statement's tail — HAVING, ORDER BY, LIMIT, in SQL's order — to
// an already-assembled result, exactly as PctDatabase::Query does. Exposed
// for tests and benchmarks that assemble outside Query.
Result<Table> ApplyQueryTail(Table table, const AnalyzedQuery& query);

// Multi-line text as the one-column "plan" table every surface (CSV, wire
// protocol, shell) prints EXPLAIN output in, one row per line.
Table TextToPlanTable(const std::string& text);

// EXPLAIN ANALYZE of any statement, batched or not: calls `run` with
// `options` tracing into a fresh trace, discards what it ran, and renders
// the executed plan — strategy chosen (and why: advisor vs forced),
// cost-model predicted vs actual, and per-operator stats for every step.
Result<std::string> ExplainAnalyzed(
    const QueryOptions& options,
    const std::function<Status(const QueryOptions& traced)>& run);

}  // namespace pctagg

#endif  // PCTAGG_CORE_DATABASE_H_
