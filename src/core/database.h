#ifndef PCTAGG_CORE_DATABASE_H_
#define PCTAGG_CORE_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "core/advisor.h"
#include "core/horizontal_planner.h"
#include "core/table_stats.h"
#include "core/vpct_planner.h"
#include "engine/catalog.h"
#include "engine/table.h"
#include "obs/trace.h"
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

// Whether percentage queries run through the fused push-based pipeline
// (core/pipeline_plan.h) or the materialized multi-statement plans. kAuto
// asks the StrategyAdvisor per query; kFused forces the pipeline whenever
// the query shape supports it (silently falling back otherwise); forcing a
// Vpct/horizontal strategy or the OLAP baseline always materializes.
enum class ExecutionMode {
  kAuto,
  kFused,
  kMaterialized,
};

// How grouping-set queries (GROUP BY CUBE/ROLLUP/GROUPING SETS) evaluate
// their lattice (core/lattice_plan.h; SET lattice in sessions). kShared
// computes the finest level with one fused scan and rolls every coarser
// level up from cached partials; kPerLevel recomputes each level from the
// fact table; kAuto asks the StrategyAdvisor.
enum class LatticeMode {
  kAuto,
  kShared,
  kPerLevel,
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
  // StrategyAdvisor.
  std::optional<VpctStrategy> vpct_strategy;
  std::optional<HorizontalStrategy> horizontal_strategy;
  // Overrides EnableSummaryCache() for this call only.
  std::optional<bool> use_summary_cache;
  // Evaluate a Vpct query through the ANSI OLAP window-function baseline.
  bool olap_baseline = false;
  // Fused-pipeline dispatch (see ExecutionMode above; SET exec in sessions).
  ExecutionMode execution = ExecutionMode::kAuto;
  // Grouping-set lattice strategy (see LatticeMode above; SET lattice).
  LatticeMode lattice = LatticeMode::kAuto;
  // Multi-query shared-scan batching (see MqoMode above; SET mqo).
  MqoMode mqo = MqoMode::kAuto;
  // Degree of parallelism for the engine's morsel-driven operator kernels
  // (aggregate, pivot, join probe, window). 1 = serial (default), 0 = auto
  // (the shared worker pool's size), n = use up to n workers. Results are
  // identical at every setting apart from float-sum rounding — see
  // docs/PARALLELISM.md.
  size_t degree_of_parallelism = 1;
  // When set, Query fills it with the executed-plan trace: planning metadata
  // (query class, strategy, cost-model predictions) plus one node per
  // generated statement with per-operator stats. Owned by the caller; must
  // outlive the Query call. See docs/OBSERVABILITY.md.
  obs::QueryTrace* trace = nullptr;
  // Summary-maintenance policy when Execute runs an INSERT/COPY.
  AppendPolicy append_policy = AppendPolicy::kAuto;
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
// plan, run it against the (here: embedded) engine.
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
  // executing it. The server's MQO batching gate (server/mqo_gate.h) uses
  // this to extract a statement's partial requirements before admission;
  // callers hold the same reader lock they would hold for Query.
  Result<AnalyzedQuery> PrepareQuery(const std::string& sql) const {
    return Prepare(sql);
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
  // storage attached) its segment file and manifest entry. Returns true when
  // a table was dropped, false for the benign if_exists-and-absent case.
  Result<bool> DropTable(const std::string& name, bool if_exists = false);

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
  // once per mergeable cache entry with the entry's own recipe and merged by
  // keyed upsert (engine/merge.h); entries whose aggregates are not
  // distributive — or where the CostModel prefers it — are dropped and
  // recomputed lazily by the next query. Dictionary codes of string columns
  // are resolved against the table's existing per-column dictionaries.
  //
  // This is a write: callers must keep it exclusive against concurrent
  // queries on the same database (the server's QueryExecutor classifies
  // INSERT/COPY as exclusive writers; library users synchronize themselves).
  Result<AppendOutcome> AppendRows(const std::string& name, const Table& delta) {
    return AppendRows(name, delta, QueryOptions{});
  }
  Result<AppendOutcome> AppendRows(const std::string& name, const Table& delta,
                                   const QueryOptions& options);

  // Full statement dispatch: SELECT / EXPLAIN [ANALYZE] go to Query;
  // INSERT INTO ... VALUES and COPY ... FROM ... (APPEND) — including their
  // EXPLAIN ANALYZE forms — run through AppendRows and return a one-row
  // summary (rows_appended, summaries_merged, summaries_recomputed).
  // DROP TABLE [IF EXISTS] and CHECKPOINT return one-row summaries too.
  // Non-const because writes mutate the catalog; see AppendRows for the
  // writer-exclusivity contract.
  Result<Table> Execute(const std::string& sql) {
    return Execute(sql, QueryOptions{});
  }
  Result<Table> Execute(const std::string& sql, const QueryOptions& options);

  // CREATE TABLE <name> AS <select>: materializes a query result as a new
  // base table. This is how the paper's "F can be a temporary table
  // resulting from some query or a view" works here — denormalize or
  // pre-filter once, then run percentage queries against the result.
  Status CreateTableAs(const std::string& name, const std::string& sql);

  // Parses, analyzes, plans (strategies picked by the StrategyAdvisor),
  // executes and returns the result. Temporary tables are cleaned up.
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

  // Shorthands for forced-strategy evaluation (the benchmark harness drives
  // these); equivalent to Query with the strategy set in QueryOptions.
  Result<Table> QueryVpct(const std::string& sql,
                          const VpctStrategy& strategy) const;
  Result<Table> QueryHorizontal(const std::string& sql,
                                const HorizontalStrategy& strategy) const;

  // Evaluates a Vpct query through the ANSI OLAP window-function baseline.
  Result<Table> QueryOlapBaseline(const std::string& sql) const;

  // The generated multi-statement SQL script for `sql` under the advised (or
  // given) strategy, without executing it.
  Result<std::string> Explain(const std::string& sql) const;

  // EXPLAIN ANALYZE: executes `sql` with tracing on and returns the rendered
  // executed plan — strategy chosen (and why: advisor vs forced), cost-model
  // predicted vs actual, and per-operator stats for every generated
  // statement. The query's result table is discarded.
  Result<std::string> ExplainAnalyze(const std::string& sql) const {
    return ExplainAnalyze(sql, QueryOptions{});
  }
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const QueryOptions& options) const;

 private:
  // Statement bodies of Execute (EXPLAIN prefix already stripped).
  Result<AppendOutcome> ExecuteInsert(const std::string& sql,
                                      const QueryOptions& options);
  Result<AppendOutcome> ExecuteCopy(const std::string& sql,
                                    const QueryOptions& options);

  // Shared tail: execute `plan`, pull out the result, drop temps.
  Result<Table> RunPlan(const Plan& plan, const AnalyzedQuery& query,
                        bool use_cache,
                        obs::QueryTrace* trace = nullptr) const;

  Result<AnalyzedQuery> Prepare(const std::string& sql) const;

  // Planner statistics of base table `name`, whose catalog entry is `table`.
  PlannerStats StatsOf(const std::string& name, const Table& table) const;

  // Records fresh statistics for base table `name` after a writer changed
  // it; `appended` means rows were only added at the end, so the kept record
  // is extended instead of re-collected.
  void KeepStats(const std::string& name, const Table& table,
                 bool appended = false);

  // Mutable because Query() is logically const: it registers (and drops)
  // process-uniquely-named temporaries in the internally synchronized
  // catalog and fills the internally synchronized summary cache.
  mutable Catalog catalog_;
  StrategyAdvisor advisor_;
  mutable SummaryCache summaries_;
  // One planner-statistics record per base table, keyed by lower-cased name
  // and kept current by the same writers that invalidate summaries_.
  mutable std::mutex stats_mu_;
  std::map<std::string, TableStats> table_stats_;
  bool summary_cache_enabled_ = false;
  std::unique_ptr<storage::StorageManager> storage_;
};

// Applies a statement's tail — HAVING, ORDER BY, LIMIT, in SQL's order — to
// an already-assembled result. Exposed for the distributed coordinator,
// which assembles query results outside PctDatabase::Query but must match
// its tail semantics exactly.
Result<Table> ApplyQueryTail(Table table, const AnalyzedQuery& query);

}  // namespace pctagg

#endif  // PCTAGG_CORE_DATABASE_H_
