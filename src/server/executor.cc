#include "server/executor.h"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/mqo_plan.h"
#include "engine/parallel.h"
#include "obs/metrics.h"

namespace pctagg {

namespace {

// Registration takes a mutex, so hoist each metric behind a function-local
// static; Add() itself is a relaxed atomic on a per-thread shard.
obs::Counter& ExecutedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_server_statements_executed_total",
      "Statements run to completion (success or error) by the executor.");
  return c;
}

obs::Counter& RejectedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_server_statements_rejected_total",
      "Statements bounced by admission control (max_in_flight exceeded).");
  return c;
}

obs::Counter& TimedOutCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_server_statements_timed_out_total",
      "Statements whose caller hit the wall-clock deadline.");
  return c;
}

obs::Gauge& InFlightGauge() {
  static obs::Gauge& g = obs::GlobalMetrics().GetGauge(
      "pctagg_server_statements_in_flight",
      "Statements admitted but not yet finished (running or queued).");
  return g;
}

}  // namespace

QueryExecutor::QueryExecutor(PctDatabase* db, ExecutorConfig config)
    : db_(db),
      config_(config),
      mqo_gate_(MqoGateConfig{config.mqo_window_ms, config.mqo_max_batch}) {
  if (config.worker_threads > 0) {
    owned_pool_ = std::make_unique<ThreadPool>(config.worker_threads);
    pool_ = owned_pool_.get();
  } else {
    pool_ = &SharedThreadPool();
  }
}

QueryExecutor::~QueryExecutor() {
  // A timed-out statement keeps running after its caller gave up; it still
  // references `this` (and the database), so wait it out before tearing down.
  outstanding_.Wait();
}

bool QueryExecutor::ParseCreateTableAs(const std::string& sql,
                                       std::string* name,
                                       std::string* select_sql) {
  std::istringstream in(sql);
  std::string w1, w2, ident, w4;
  in >> w1 >> w2 >> ident >> w4;
  if (!EqualsIgnoreCase(w1, "CREATE") || !EqualsIgnoreCase(w2, "TABLE") ||
      ident.empty() || !EqualsIgnoreCase(w4, "AS")) {
    return false;
  }
  std::string rest;
  std::getline(in, rest);
  size_t start = rest.find_first_not_of(" \t");
  if (start == std::string::npos) return false;
  *name = ident;
  *select_sql = rest.substr(start);
  return true;
}

namespace {

// First statement keyword, skipping an EXPLAIN [ANALYZE] prefix. Trailing
// semicolons are stripped so a bare "CHECKPOINT;" classifies like
// "CHECKPOINT".
std::string LeadingKeyword(const std::string& sql) {
  std::istringstream in(sql);
  std::string word;
  in >> word;
  if (EqualsIgnoreCase(word, "EXPLAIN")) {
    in >> word;
    if (EqualsIgnoreCase(word, "ANALYZE")) in >> word;
  }
  while (!word.empty() && word.back() == ';') word.pop_back();
  return word;
}

}  // namespace

bool QueryExecutor::IsAppendStatement(const std::string& sql) {
  std::string word = LeadingKeyword(sql);
  return EqualsIgnoreCase(word, "INSERT") || EqualsIgnoreCase(word, "COPY");
}

bool QueryExecutor::IsWriteStatement(const std::string& sql) {
  std::string word = LeadingKeyword(sql);
  return EqualsIgnoreCase(word, "INSERT") || EqualsIgnoreCase(word, "COPY") ||
         EqualsIgnoreCase(word, "DROP") || EqualsIgnoreCase(word, "CHECKPOINT");
}

Status QueryExecutor::Run(bool writer, std::function<Status()> fn,
                          uint64_t timeout_ms) {
  // Admission: count this statement in; if the service is already saturated,
  // bounce it with a typed, retryable error.
  if (in_flight_.fetch_add(1) >= config_.max_in_flight) {
    in_flight_.fetch_sub(1);
    ++rejected_;
    RejectedCounter().Add();
    return Status::Unavailable(
        StrFormat("server overloaded: %zu statements in flight",
                  config_.max_in_flight));
  }
  // The task slot outlives a timed-out caller, so it is shared; the caller
  // waits on the WaitGroup instead of a bespoke promise/future latch.
  struct TaskSlot {
    WaitGroup done;
    Status status = Status::OK();
  };
  auto slot = std::make_shared<TaskSlot>();
  slot->done.Add();
  outstanding_.Add();
  InFlightGauge().Add(1);
  bool submitted = pool_->Submit([this, writer, fn = std::move(fn), slot] {
    Status st;
    if (writer) {
      std::unique_lock<std::shared_mutex> lock(table_lock_);
      st = fn();
    } else {
      std::shared_lock<std::shared_mutex> lock(table_lock_);
      st = fn();
    }
    ++executed_;
    ExecutedCounter().Add();
    in_flight_.fetch_sub(1);
    InFlightGauge().Add(-1);
    slot->status = std::move(st);
    slot->done.Done();
    outstanding_.Done();
  });
  if (!submitted) {
    in_flight_.fetch_sub(1);
    InFlightGauge().Add(-1);
    outstanding_.Done();
    return Status::Unavailable("server shutting down");
  }
  if (timeout_ms == 0) {
    slot->done.Wait();
    return std::move(slot->status);
  }
  if (!slot->done.WaitFor(std::chrono::milliseconds(timeout_ms))) {
    ++timed_out_;
    TimedOutCounter().Add();
    return Status::Timeout(
        StrFormat("query exceeded %llu ms deadline",
                  (unsigned long long)timeout_ms));
  }
  return std::move(slot->status);
}

Result<Table> QueryExecutor::ExecuteStatement(
    const std::string& sql, const QueryOptions& options, uint64_t timeout_ms,
    std::shared_ptr<obs::QueryTrace> trace) {
  std::string name, select_sql;
  bool is_ctas = ParseCreateTableAs(sql, &name, &select_sql);
  // Appends, DROP TABLE and CHECKPOINT all dispatch to PctDatabase::Execute
  // under the exclusive lock.
  bool is_append = !is_ctas && IsWriteStatement(sql);
  // The worker may outlive a timed-out caller, so the result slot is shared —
  // and the lambda co-owns `trace` so the worker never writes into a trace the
  // caller has already dropped.
  auto out = std::make_shared<Result<Table>>(Table());
  QueryOptions opts = options;
  opts.trace = trace.get();
  Status st = Run(
      is_ctas || is_append,
      [this, out, opts, trace, name = std::move(name),
       select_sql = std::move(select_sql), sql, is_ctas, is_append,
       timeout_ms]() -> Status {
        if (is_ctas) {
          // Note: CreateTableAs runs its inner SELECT while we hold the
          // exclusive lock — correct (the new table appears atomically to
          // readers) at the cost of serializing with readers.
          PCTAGG_RETURN_IF_ERROR(db_->CreateTableAs(name, select_sql));
          *out = Table();  // empty result set
          return Status::OK();
        }
        if (is_append) {
          // Appends mutate the base table and delta-maintain its cached
          // summaries; the exclusive lock we hold is exactly the
          // writer-exclusivity AppendRows requires.
          Result<Table> r = db_->Execute(sql, opts);
          if (!r.ok()) return r.status();
          *out = std::move(r);
          return Status::OK();
        }
        Result<Table> r = RunMqoRead(sql, opts, timeout_ms);
        if (!r.ok()) return r.status();
        *out = std::move(r);
        return Status::OK();
      },
      timeout_ms);
  if (!st.ok()) return st;
  return std::move(*out);
}

namespace {

// First word (trailing semicolons stripped) is SELECT — the only statements
// the batching gate admits. EXPLAIN forms are peeled separately below.
bool IsPlainSelect(const std::string& sql) {
  std::istringstream in(sql);
  std::string word;
  in >> word;
  while (!word.empty() && word.back() == ';') word.pop_back();
  return EqualsIgnoreCase(word, "SELECT");
}

// Splits an EXPLAIN ANALYZE <select> statement; false for anything else
// (including plain EXPLAIN, which never executes and so never batches).
bool SplitExplainAnalyze(const std::string& sql, std::string* inner) {
  std::istringstream in(sql);
  std::string w1, w2;
  in >> w1 >> w2;
  if (!EqualsIgnoreCase(w1, "EXPLAIN") || !EqualsIgnoreCase(w2, "ANALYZE")) {
    return false;
  }
  std::string rest;
  std::getline(in, rest);
  size_t start = rest.find_first_not_of(" \t");
  if (start == std::string::npos) return false;
  *inner = rest.substr(start);
  return IsPlainSelect(*inner);
}

// Same single-column "plan" rendering PctDatabase uses for EXPLAIN output.
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

}  // namespace

Result<Table> QueryExecutor::RunMqoRead(const std::string& sql,
                                        const QueryOptions& opts,
                                        uint64_t timeout_ms) {
  // Anything that can't batch falls through to the ordinary solo path with
  // identical semantics and error text. Forced strategies and the OLAP
  // baseline bypass the gate because the batch executor would override the
  // forced plan; materialized execution likewise.
  if (opts.mqo == MqoMode::kOff || opts.olap_baseline ||
      opts.vpct_strategy.has_value() || opts.horizontal_strategy.has_value() ||
      opts.execution == ExecutionMode::kMaterialized) {
    return db_->Query(sql, opts);
  }
  std::string inner;
  const bool analyze = SplitExplainAnalyze(sql, &inner);
  if (!analyze) {
    if (!IsPlainSelect(sql)) return db_->Query(sql, opts);
    inner = sql;
  }
  // Per-query deadlines win over batching: a query whose timeout could be
  // eaten by the collection window executes solo.
  if (mqo_gate_.ShouldRunSolo(timeout_ms)) {
    mqo_gate_.RecordSoloEscape();
    return db_->Query(sql, opts);
  }
  Result<AnalyzedQuery> prepared = db_->PrepareQuery(inner);
  if (!prepared.ok()) return db_->Query(sql, opts);
  std::string why;
  if (!MqoSupported(*prepared, &why)) return db_->Query(sql, opts);
  Result<const Table*> fact =
      static_cast<const PctDatabase*>(db_)->catalog().GetTable(
          prepared->table_name);
  if (!fact.ok() || (*fact)->num_rows() == 0) return db_->Query(sql, opts);

  // Compatibility key + execution-context fingerprint: only queries whose
  // results depend on the same settings may share a batch.
  const bool use_cache =
      opts.use_summary_cache.value_or(db_->summary_cache_enabled());
  const std::string key =
      MqoCompatibilityKey(*prepared) +
      StrFormat("|c%d|d%zu|l%d", use_cache ? 1 : 0, opts.degree_of_parallelism,
                static_cast<int>(opts.lattice));

  MqoGate::Member member;
  member.query = &*prepared;
  member.sql = inner;
  obs::QueryTrace analyze_trace;
  member.trace = analyze ? &analyze_trace : opts.trace;
  Stopwatch timer;
  Result<Table> result = mqo_gate_.Run(
      key, member, [this, &opts](std::vector<MqoGate::Member*>& members) {
        ExecuteMqoMembers(opts, members);
      });
  if (!analyze || !result.ok()) return result;
  analyze_trace.total_ms = timer.ElapsedMillis();
  if (analyze_trace.query_class.empty()) {
    analyze_trace.query_class = QueryClassName(prepared->query_class);
  }
  return TextToPlanTable(analyze_trace.Render());
}

void QueryExecutor::ExecuteMqoMembers(const QueryOptions& opts,
                                      std::vector<MqoGate::Member*>& members) {
  auto run_solo = [this, &opts](MqoGate::Member* m) {
    QueryOptions o = opts;
    o.trace = m->trace;
    m->result = db_->Query(m->sql, o);
  };
  bool want_costs = false;
  for (MqoGate::Member* m : members) want_costs |= m->trace != nullptr;
  if (members.size() == 1 && !want_costs) {
    run_solo(members[0]);
    return;
  }
  std::vector<const AnalyzedQuery*> queries;
  queries.reserve(members.size());
  for (MqoGate::Member* m : members) queries.push_back(m->query);
  Result<MqoBatchPlan> plan = PlanMqoBatch(queries);
  Result<const Table*> fact =
      plan.ok() ? static_cast<const PctDatabase*>(db_)->catalog().GetTable(
                      plan->table)
                : Result<const Table*>(plan.status());
  if (!plan.ok() || !fact.ok()) {
    for (MqoGate::Member* m : members) run_solo(m);
    return;
  }

  ScopedParallelism parallelism(opts.degree_of_parallelism);
  const size_t dop = CurrentDop();

  // Price batch vs N independent fused scans; EXPLAIN ANALYZE and SET trace
  // render both candidates. kAuto lets the model decide; kOn always batches
  // when >= 2 members made it this far.
  bool batch_it = members.size() >= 2;
  CostModel model;
  Result<PlannerStats> table = db_->PlannerStatistics(plan->table);
  Result<FactStats> stats =
      table.ok() ? model.EstimateStats(*table, plan->scan_cols, {}, {})
                 : Result<FactStats>(table.status());
  if (stats.ok()) {
    stats->dop = static_cast<double>(dop);
    const double batch_cost = model.MqoBatchCost(
        *stats, static_cast<double>(members.size()),
        static_cast<double>(plan->scan_partials.size()));
    const double solo_cost =
        static_cast<double>(members.size()) * model.FusedVpctCost(*stats);
    if (opts.mqo == MqoMode::kAuto && batch_it) batch_it = batch_cost <= solo_cost;
    for (MqoGate::Member* m : members) {
      if (m->trace == nullptr) continue;
      m->trace->predicted_costs.push_back(
          {StrFormat("mqo-batch (%zu queries, %zu shared partials)",
                     members.size(), plan->scan_partials.size()),
           batch_cost, batch_it});
      m->trace->predicted_costs.push_back(
          {StrFormat("solo fused scans (x%zu)", members.size()), solo_cost,
           !batch_it});
    }
  }
  if (!batch_it) {
    for (MqoGate::Member* m : members) run_solo(m);
    return;
  }

  const bool use_cache =
      opts.use_summary_cache.value_or(db_->summary_cache_enabled());
  SummaryCache* summaries = use_cache ? &db_->summaries() : nullptr;
  std::vector<obs::QueryTrace*> traces;
  traces.reserve(members.size());
  for (MqoGate::Member* m : members) traces.push_back(m->trace);
  MqoBatchStats bstats;
  Result<std::vector<Table>> results =
      ExecuteMqoBatch(*plan, **fact, summaries, traces, dop, &bstats);
  if (!results.ok()) {
    // A batch-level failure (e.g. a mid-flight DROP) re-runs every member
    // solo so each gets its own precise error or result.
    for (MqoGate::Member* m : members) run_solo(m);
    return;
  }
  mqo_gate_.RecordScanRowsSaved(
      static_cast<uint64_t>((*fact)->num_rows()) *
      static_cast<uint64_t>(members.size() - 1));
  for (size_t i = 0; i < members.size(); ++i) {
    members[i]->result = std::move((*results)[i]);
  }
}

Status QueryExecutor::ExecuteWrite(std::function<Status()> fn,
                                   uint64_t timeout_ms) {
  return Run(/*writer=*/true, std::move(fn), timeout_ms);
}

Status QueryExecutor::ExecuteRead(std::function<Status()> fn,
                                  uint64_t timeout_ms) {
  return Run(/*writer=*/false, std::move(fn), timeout_ms);
}

}  // namespace pctagg
