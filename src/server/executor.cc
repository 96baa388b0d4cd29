#include "server/executor.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

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

Status QueryExecutor::Run(bool writer, std::function<Status()> fn,
                          uint64_t timeout_ms) {
  // The deadline runs from admission.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
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
    std::chrono::steady_clock::time_point finished;
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
    slot->finished = std::chrono::steady_clock::now();
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
  // A caller whose wait wakes late can find the statement done: one that
  // finished after the deadline timed out all the same.
  if (!slot->done.WaitUntil(deadline) || slot->finished > deadline) {
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
  // Parsed on the caller's thread: a malformed statement takes no pool slot.
  PCTAGG_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(sql));
  auto stmt = std::make_shared<const Statement>(std::move(parsed));
  // Every statement but a SELECT is a write; an EXPLAIN form takes the lock
  // its statement would.
  const bool writer = stmt->kind != Statement::Kind::kSelect;
  // The worker may outlive a timed-out caller, so the result slot is shared —
  // and the lambda co-owns `trace` so the worker never writes into a trace the
  // caller has already dropped.
  auto out = std::make_shared<Result<Table>>(Table());
  QueryOptions opts = options;
  opts.trace = trace.get();
  Status st = Run(
      writer,
      [this, out, opts, trace, stmt, writer, timeout_ms]() -> Status {
        // The exclusive lock a write runs under is exactly the
        // writer-exclusivity PctDatabase::Execute requires.
        *out = writer ? db_->Execute(*stmt, opts)
                      : RunMqoRead(*stmt, opts, timeout_ms);
        return out->status();
      },
      timeout_ms);
  if (!st.ok()) return st;
  return std::move(*out);
}

Result<Table> QueryExecutor::RunMqoRead(const Statement& stmt,
                                        const QueryOptions& opts,
                                        uint64_t timeout_ms) {
  // Forced strategies and the OLAP baseline bypass the gate because a batch
  // would override the forced plan; plain EXPLAIN never executes, so it
  // never batches. Per-query deadlines win over batching: a query whose
  // timeout could be eaten by the collection window executes solo.
  if (opts.mqo == MqoMode::kOff || opts.olap_baseline ||
      opts.vpct_strategy.has_value() || opts.horizontal_strategy.has_value() ||
      (stmt.explain && !stmt.analyze)) {
    return db_->Execute(stmt, opts);
  }
  if (mqo_gate_.ShouldRunSolo(timeout_ms)) {
    mqo_gate_.RecordSoloEscape();
    return db_->Execute(stmt, opts);
  }
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, db_->PrepareQuery(stmt.select));
  // The planner statistics, not the catalog entry: a sharded table's stub
  // has no rows, its SHARD-time statistics do.
  auto has_rows = [&] {
    Result<PlannerStats> stats = db_->PlannerStatistics(query.table_name);
    return stats.ok() && stats->rows() > 0;
  };
  auto run = [&](const QueryOptions& own) -> Result<Table> {
    std::shared_ptr<const MqoBatchScan> batch;
    if (PartialPlanSupported(query) && has_rows()) {
      // Compatibility key + execution-context fingerprint: only queries
      // whose results depend on the same settings may share a batch.
      const bool use_cache =
          opts.use_summary_cache.value_or(db_->summary_cache_enabled());
      const std::string key =
          MqoCompatibilityKey(query) +
          StrFormat("|c%d|d%zu", use_cache ? 1 : 0,
                    opts.degree_of_parallelism);
      MqoGate::Member member;
      member.query = &query;
      member.dop = opts.degree_of_parallelism;
      member.trace = own.trace;
      batch = mqo_gate_.Run(
          key, member,
          [this, &opts](const std::vector<MqoGate::Member*>& members) {
            return PlanAndScanMqoBatch(opts, members);
          });
    }
    // Every member — batched, declined or alone — finishes on its own
    // thread as an ordinary query, the published batch one more source of
    // partials.
    return db_->QueryPrepared(query, stmt.text, own, batch.get());
  };
  if (!stmt.analyze) return run(opts);
  PCTAGG_ASSIGN_OR_RETURN(
      std::string text,
      ExplainAnalyzed(opts, [&](const QueryOptions& traced) {
        return run(traced).status();
      }));
  return TextToPlanTable(text);
}

std::shared_ptr<const MqoBatchScan> QueryExecutor::PlanAndScanMqoBatch(
    const QueryOptions& opts, const std::vector<MqoGate::Member*>& members) {
  bool traced = false;
  for (const MqoGate::Member* m : members) traced |= m->trace != nullptr;
  // A lone untraced query has nothing to share or to show.
  if (members.size() == 1 && !traced) return nullptr;
  std::vector<const AnalyzedQuery*> queries;
  queries.reserve(members.size());
  for (const MqoGate::Member* m : members) queries.push_back(m->query);
  Result<MqoBatchPlan> plan = PlanMqoBatch(queries);
  if (!plan.ok()) return nullptr;
  Result<PlannerStats> table = db_->PlannerStatistics(plan->table);
  if (!table.ok()) return nullptr;
  const uint64_t rows = static_cast<uint64_t>(table->rows());
  auto batch = std::make_shared<MqoBatchScan>();
  batch->plan = std::move(*plan);
  const MqoBatchPlan& bp = batch->plan;

  // Every member's executor thread is parked for the whole scan, so the
  // scan runs with the cores they brought: min(Σ dop, cores), a member at
  // dop 0 bringing all of them.
  const size_t cores = AvailableParallelism();
  size_t brought = 0;
  for (const MqoGate::Member* m : members) {
    brought += m->dop == 0 ? cores : m->dop;
  }
  const size_t dop = std::max<size_t>(1, std::min(brought, cores));

  // Price batch vs N independent fused scans, both at the batch dop;
  // EXPLAIN ANALYZE and SET trace render both candidates. auto lets the
  // model decide; on always batches when >= 2 members made it this far.
  bool batch_it = members.size() >= 2;
  if (opts.mqo == MqoMode::kAuto || traced) {
    CostModel model;
    Result<FactStats> stats = model.EstimateStats(*table, bp.scan_cols, {}, {});
    if (stats.ok()) {
      stats->dop = static_cast<double>(dop);
      const double batch_cost = model.MqoBatchCost(
          *stats, static_cast<double>(members.size()),
          static_cast<double>(bp.scan_partials.size()));
      const double solo_cost =
          static_cast<double>(members.size()) * model.FusedVpctCost(*stats);
      if (opts.mqo == MqoMode::kAuto && batch_it) {
        batch_it = batch_cost <= solo_cost;
      }
      if (traced) {
        batch->costs.push_back(
            {StrFormat("mqo-batch (%zu queries, %zu shared partials, dop %zu)",
                       members.size(), bp.scan_partials.size(), dop),
             batch_cost, batch_it});
        batch->costs.push_back(
            {StrFormat("solo fused scans (x%zu)", members.size()), solo_cost,
             !batch_it});
      }
    }
  }
  if (!batch_it) return batch;

  // One read of the union level from the table's source: a scan, the
  // cache or, for a sharded table, one scatter.
  const bool use_cache =
      opts.use_summary_cache.value_or(db_->summary_cache_enabled());
  obs::QueryTrace scan_trace;
  ScopedParallelism parallelism(dop);
  Result<std::shared_ptr<const Table>> partials =
      db_->Partials(bp.table, bp.where, bp.scan_cols, bp.scan_partials,
                    use_cache, traced ? &scan_trace : nullptr, dop);
  // A failed read (e.g. a WHERE that fails at run time, or a lost shard)
  // publishes no partials: every member reruns solo for its own error or
  // result.
  if (!partials.ok()) return batch;
  batch->partials = std::move(*partials);
  AttachMqoScanTrace(
      batch.get(),
      StrFormat("%zu queries share one scan of %s at dop %zu (%zu partials "
                "deduped from %zu; rows scanned once: %llu instead of %zu "
                "times)",
                members.size(), bp.table.c_str(), dop, bp.scan_partials.size(),
                bp.partials_requested, static_cast<unsigned long long>(rows),
                members.size()),
      &scan_trace);
  mqo_gate_.RecordScanRowsSaved(rows *
                                static_cast<uint64_t>(members.size() - 1));
  return batch;
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
