#include "dist/coordinator.h"

#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/partial_plan.h"
#include "core/select_plan.h"
#include "dist/shard.h"
#include "engine/parallel.h"
#include "engine/table_ops.h"
#include "obs/metrics.h"
#include "sql/parser.h"
#include "storage/serde.h"

namespace pctagg {
namespace dist {
namespace {

// --- Metrics (registration hoisted; see obs/metrics.h) ----------------------

obs::Counter& QueriesCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_dist_queries_total", "Distributed scatter/gather queries run");
  return c;
}
obs::Counter& ShardErrorsCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_dist_shard_errors_total",
      "Shard requests that failed after all retries");
  return c;
}
obs::Counter& RetriesCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_dist_retries_total",
      "Shard request resends after a transport failure");
  return c;
}
obs::Counter& BytesMovedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_dist_bytes_moved_total",
      "Bytes shipped between coordinator and workers (both directions)");
  return c;
}
obs::Counter& RowsMergedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_dist_rows_merged_total",
      "Partial-summary rows gathered from shards");
  return c;
}
obs::Gauge& InflightGauge() {
  static obs::Gauge& g = obs::GlobalMetrics().GetGauge(
      "pctagg_dist_inflight_shards",
      "Shard requests currently awaiting a response");
  return g;
}
obs::Histogram& ScatterHist() {
  static obs::Histogram& h = obs::GlobalMetrics().GetHistogram(
      "pctagg_dist_scatter_micros",
      "Per-query wall time from fan-out to the last shard response");
  return h;
}
obs::Histogram& GatherMergeHist() {
  static obs::Histogram& h = obs::GlobalMetrics().GetHistogram(
      "pctagg_dist_gather_merge_micros",
      "Per-query coordinator-side time merging shard partials");
  return h;
}
obs::Histogram& ShardWallHist() {
  static obs::Histogram& h = obs::GlobalMetrics().GetHistogram(
      "pctagg_dist_shard_wall_micros",
      "Per-shard wall time of one PARTIAL request (connect+send+recv)");
  return h;
}

uint64_t ToMicros(double ms) {
  return ms <= 0 ? 0 : static_cast<uint64_t>(ms * 1e3);
}

// The source steps of a distributed partial plan, as ScatterGather's trace
// nodes name them: the fan-out of one PARTIAL statement, then the merge.
PlanStep ScatterStep(size_t worker_dop, const std::string& partial_sql,
                     size_t nshards) {
  return {"scatter", StrFormat("PARTIAL %zu %s -> %zu shards", worker_dop,
                               partial_sql.c_str(), nshards)};
}

PlanStep GatherStep(size_t nshards, size_t num_key_cols, size_t num_aggs) {
  return {"gather-merge",
          StrFormat("merged %zu shard partials (%zu group cols, %zu "
                    "aggregates)",
                    nshards, num_key_cols, num_aggs)};
}

// Errors the worker could only produce if the coordinator shipped a bad
// partial statement (or the deployment lost a shard table): everything else
// is a transport/availability problem the caller should see as kUnavailable.
bool IsSemanticError(const Status& s) {
  switch (s.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kAnalysisError:
    case StatusCode::kTypeMismatch:
      return true;
    default:
      return false;
  }
}

// One shard's response, queued by its scatter thread for the gathering
// coordinator thread.
struct Arrival {
  size_t shard = 0;
  Status status;  // OK -> `partial` is the decoded worker table
  Table partial;
  uint64_t rows = 0;
  double wall_ms = 0;
  uint64_t body_bytes = 0;
  int resends = 0;
};

}  // namespace

Coordinator::Coordinator(PctDatabase* db, std::vector<WorkerEndpoint> workers,
                         CoordinatorConfig config)
    : db_(db),
      config_(config),
      mqo_gate_(MqoGateConfig{config.mqo_window_ms, config.mqo_max_batch}) {
  links_.reserve(workers.size());
  for (WorkerEndpoint& w : workers) {
    auto link = std::make_unique<ShardLink>();
    link->endpoint = std::move(w);
    links_.push_back(std::move(link));
  }
}

Coordinator::~Coordinator() = default;

bool Coordinator::Routes(const std::string& table) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  return tables_.count(ToLower(table)) != 0;
}

Status Coordinator::EnsureConnected(ShardLink* link) {
  if (link->client.connected()) return Status::OK();
  ConnectOptions copt;
  copt.attempts = config_.shard_attempts;
  copt.backoff_initial_ms = config_.backoff_initial_ms;
  copt.backoff_max_ms = config_.backoff_max_ms;
  copt.attempt_timeout_ms = config_.shard_timeout_ms;
  copt.io_timeout_ms = config_.shard_timeout_ms;
  PCTAGG_ASSIGN_OR_RETURN(
      PctClient client,
      PctClient::Connect(link->endpoint.host, link->endpoint.port, copt));
  link->client = std::move(client);
  return Status::OK();
}

Status Coordinator::ShardTable(const std::string& table,
                               const std::string& key_column) {
  if (links_.empty()) {
    return Status::InvalidArgument(
        "SHARD: this server has no workers configured (--worker)");
  }
  if (Routes(table)) {
    return Status::InvalidArgument(
        "SHARD: table '" + table +
        "' is already sharded; reload the base table to reshard");
  }
  PCTAGG_ASSIGN_OR_RETURN(const Table* full, db_->catalog().GetTable(table));

  // Resolve the full table's planner statistics now: after the scatter the
  // local copy is a zero-row stub and this snapshot is all the cost model
  // gets.
  ShardedMeta meta;
  meta.key_column = ToLower(key_column);
  meta.total_rows = full->num_rows();
  PCTAGG_ASSIGN_OR_RETURN(meta.stats, db_->PlannerStatistics(table));

  PCTAGG_ASSIGN_OR_RETURN(
      std::vector<Table> shards,
      HashPartitionTable(*full, key_column, links_.size()));
  Schema schema = full->schema();
  full = nullptr;  // invalidated by ReplaceTable below

  for (size_t i = 0; i < shards.size(); ++i) {
    std::string bytes;
    storage::EncodeTable(shards[i], &bytes);
    ShardLink* link = links_[i].get();
    std::lock_guard<std::mutex> lock(link->mu);
    Status st = EnsureConnected(link);
    Result<WireResponse> resp = Status::Unavailable("not connected");
    if (st.ok()) {
      resp = link->client.ShardData(table, bytes);
      if (!resp.ok()) {
        // SHARDDATA replaces the whole shard table, so a resend after a lost
        // response is safe — one reconnect covers the broken-link case.
        RetriesCounter().Add(1);
        st = link->client.Reconnect();
        if (st.ok()) resp = link->client.ShardData(table, bytes);
      }
    }
    const Status* failed = nullptr;
    if (!st.ok()) failed = &st;
    else if (!resp.ok()) failed = &resp.status();
    else if (!resp->status.ok()) failed = &resp->status;
    if (failed != nullptr) {
      ShardErrorsCounter().Add(1);
      return Status::Unavailable(StrFormat(
          "SHARD: shard %zu @ %s:%d failed: %s", i, link->endpoint.host.c_str(),
          link->endpoint.port, failed->message().c_str()));
    }
    link->bytes_sent.fetch_add(bytes.size(), std::memory_order_relaxed);
    BytesMovedCounter().Add(bytes.size());
  }

  // Keep the schema visible locally so the analyzer can prepare distributed
  // queries against the stub; drop the rows.
  PCTAGG_RETURN_IF_ERROR(db_->ReplaceTable(table, Table(schema)));
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_[ToLower(table)] = std::move(meta);
  return Status::OK();
}

Result<std::optional<Table>> Coordinator::MaybeExecute(
    const std::string& sql, const QueryOptions& options,
    obs::QueryTrace* trace) {
  Result<ParsedStatement> kind = ParseStatementKind(sql);
  // Malformed statements fall through to the local path so error messages
  // stay identical with and without a router.
  if (!kind.ok()) return std::optional<Table>();

  if (kind->kind == ParsedStatement::Kind::kDrop) {
    Result<DropStatement> drop = ParseDrop(kind->select_sql);
    if (!drop.ok()) return std::optional<Table>();
    if (!Routes(drop->table)) return std::optional<Table>();
    if (kind->explain) {
      return std::optional<Table>(TextToPlanTable(
          drop->ToString() +
          "\n-- distributed drop: forward the DROP to every worker, then\n"
          "-- drop the local schema stub and forget the shard map.\n"));
    }
    for (size_t i = 0; i < links_.size(); ++i) {
      ShardLink* link = links_[i].get();
      std::lock_guard<std::mutex> lock(link->mu);
      Status st = EnsureConnected(link);
      if (st.ok()) {
        // IF EXISTS: a worker that lost the shard (restart) should not block
        // the coordinator from forgetting the table.
        Result<WireResponse> resp = link->client.Query(
            "DROP TABLE IF EXISTS " + drop->table);
        if (!resp.ok()) st = resp.status();
        else if (!resp->status.ok()) st = resp->status;
      }
      if (!st.ok()) {
        ShardErrorsCounter().Add(1);
        return Status::Unavailable(StrFormat(
            "DROP: shard %zu @ %s:%d failed: %s", i,
            link->endpoint.host.c_str(), link->endpoint.port,
            st.message().c_str()));
      }
    }
    PCTAGG_ASSIGN_OR_RETURN(bool dropped,
                            db_->DropTable(drop->table, drop->if_exists));
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      tables_.erase(ToLower(drop->table));
    }
    Schema schema;
    schema.AddColumn({"dropped", DataType::kInt64});
    Table out(schema);
    (void)out.AppendRow({Value::Int64(dropped ? 1 : 0)});
    return std::optional<Table>(std::move(out));
  }

  if (kind->kind == ParsedStatement::Kind::kInsert ||
      kind->kind == ParsedStatement::Kind::kCopy) {
    std::string target;
    if (kind->kind == ParsedStatement::Kind::kInsert) {
      Result<InsertStatement> ins = ParseInsert(kind->select_sql);
      if (!ins.ok()) return std::optional<Table>();
      target = ins->table;
    } else {
      Result<CopyStatement> copy = ParseCopy(kind->select_sql);
      if (!copy.ok()) return std::optional<Table>();
      target = copy->table;
    }
    if (!Routes(target)) return std::optional<Table>();
    return Status::InvalidArgument(
        "table '" + target +
        "' is sharded and read-only; reload the base table and re-issue "
        "SHARD to change its rows");
  }

  if (kind->kind != ParsedStatement::Kind::kSelect) {
    return std::optional<Table>();  // CHECKPOINT etc. run locally
  }

  Result<SelectStatement> stmt = ParseSelect(kind->select_sql);
  if (!stmt.ok()) return std::optional<Table>();
  if (!Routes(stmt->from_table)) return std::optional<Table>();
  ShardedMeta meta;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    meta = tables_.at(ToLower(stmt->from_table));
  }
  PCTAGG_ASSIGN_OR_RETURN(const Table* stub,
                          db_->catalog().GetTable(stmt->from_table));
  PCTAGG_ASSIGN_OR_RETURN(AnalyzedQuery query, Analyze(*stmt, stub->schema()));
  std::string why;
  if (!PartialPlanSupported(query, &why)) {
    return Status::InvalidArgument("distributed: " + why + " (table '" +
                                   stmt->from_table + "' is sharded)");
  }

  if (kind->explain && !kind->analyze) {
    // The steps ExecuteDistributed's trace opens, the scatter as source.
    PCTAGG_ASSIGN_OR_RETURN(PartialPlan plan, BuildPartialPlan(query));
    std::vector<PlanStep> steps = AssemblySteps(plan, meta.stats);
    steps.insert(
        steps.begin(),
        {ScatterStep(WorkerDop(options), plan.partial_sql, links_.size()),
         GatherStep(links_.size(), plan.finest_cols.size(),
                    plan.combine.size())});
    return std::optional<Table>(TextToPlanTable(
        RenderExplain(PlanDistributed(query, plan, meta, options), steps)));
  }
  if (kind->explain) {
    obs::QueryTrace analyze_trace;
    Stopwatch timer;
    PCTAGG_ASSIGN_OR_RETURN(
        Table result, ExecuteDistributed(query, meta, options, &analyze_trace));
    analyze_trace.total_ms = timer.ElapsedSeconds() * 1e3;
    (void)result;
    return std::optional<Table>(TextToPlanTable(analyze_trace.Render()));
  }
  // Route plain distributed SELECTs through the MQO gate: compatible queries
  // arriving within the collection window scatter ONE merged PARTIAL per
  // worker instead of N.
  if (options.mqo != MqoMode::kOff && meta.total_rows > 0) {
    const std::string key =
        MqoCompatibilityKey(query) +
        StrFormat("|dist|d%zu", options.degree_of_parallelism);
    MqoGate::Member member{&query, options.degree_of_parallelism, trace};
    const MqoGate::Seat seat = mqo_gate_.Run(
        key, member,
        [this, &meta, &options](const std::vector<MqoGate::Member*>& members) {
          return ScatterMqoBatch(members, meta, options);
        });
    // Every member assembles on its own thread; a singleton, or a batch
    // whose plan or scatter failed, runs its own scatter for its own error
    // or result.
    if (seat.batch != nullptr && seat.batch->partials != nullptr) {
      ScopedParallelism parallelism(options.degree_of_parallelism);
      Result<Table> batched =
          AnswerMqoMember(*seat.batch, seat.index, trace, CurrentDop());
      if (batched.ok()) return std::optional<Table>(std::move(*batched));
    }
  }
  PCTAGG_ASSIGN_OR_RETURN(Table result,
                          ExecuteDistributed(query, meta, options, trace));
  return std::optional<Table>(std::move(result));
}

Result<Table> Coordinator::ScatterGather(const std::string& partial_sql,
                                         const std::vector<std::string>& cols,
                                         const std::vector<AggSpec>& partials,
                                         size_t worker_dop,
                                         obs::QueryTrace* trace) {
  const size_t nshards = links_.size();
  const std::string payload =
      StrFormat("%zu %s", worker_dop, partial_sql.c_str());
  QueriesCounter().Add(1);

  obs::TraceNode* scatter_node = nullptr;
  if (trace != nullptr) {
    PlanStep step = ScatterStep(worker_dop, partial_sql, nshards);
    scatter_node = trace->root().AddChild(std::move(step.label),
                                          std::move(step.detail));
  }

  // Scatter: one thread per shard holds that link's mutex for the whole
  // request. Gather runs on this thread: it keeps each reply by shard index
  // and, after the last one, concatenates them in shard order and rolls
  // them up once — so the answer does not depend on which shard replied
  // first.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<Arrival> queue;
  InflightGauge().Add(static_cast<int64_t>(nshards));
  Stopwatch scatter_timer;
  std::vector<std::thread> threads;
  threads.reserve(nshards);
  for (size_t i = 0; i < nshards; ++i) {
    threads.emplace_back([this, i, &payload, &queue_mu, &queue_cv, &queue] {
      Arrival a;
      a.shard = i;
      Stopwatch timer;
      ShardLink* link = links_[i].get();
      {
        std::lock_guard<std::mutex> lock(link->mu);
        a.status = EnsureConnected(link);
        if (a.status.ok()) {
          Result<WireResponse> resp = link->client.CallWithRetry(
              RequestVerb::kPartial, payload, config_.shard_attempts,
              &a.resends);
          if (!resp.ok()) {
            a.status = resp.status();
            link->client.Close();  // re-dial on the next query
          } else if (!resp->status.ok()) {
            a.status = resp->status;
          } else {
            a.body_bytes = resp->body.size();
            link->bytes_sent.fetch_add(payload.size(),
                                       std::memory_order_relaxed);
            link->bytes_received.fetch_add(resp->body.size(),
                                           std::memory_order_relaxed);
            storage::ByteReader reader(resp->body);
            Result<Table> partial = storage::DecodeTable(&reader);
            if (!partial.ok()) a.status = partial.status();
            else {
              a.partial = std::move(*partial);
              a.rows = a.partial.num_rows();
            }
          }
        }
      }
      a.wall_ms = timer.ElapsedSeconds() * 1e3;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        queue.push_back(std::move(a));
      }
      queue_cv.notify_one();
    });
  }

  Status failure = Status::OK();
  uint64_t rows_gathered = 0;
  uint64_t bytes_gathered = 0;
  std::vector<Arrival> arrivals(nshards);
  for (size_t received = 0; received < nshards; ++received) {
    Arrival a;
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      queue_cv.wait(lock, [&queue] { return !queue.empty(); });
      a = std::move(queue.front());
      queue.pop_front();
    }
    InflightGauge().Add(-1);
    ShardWallHist().Observe(ToMicros(a.wall_ms));
    if (!a.status.ok()) {
      ShardErrorsCounter().Add(1);
      if (failure.ok()) {
        const ShardLink& link = *links_[a.shard];
        failure = IsSemanticError(a.status)
                      ? Status(a.status.code(),
                               StrFormat("shard %zu @ %s:%d: %s", a.shard,
                                         link.endpoint.host.c_str(),
                                         link.endpoint.port,
                                         a.status.message().c_str()))
                      : Status::Unavailable(StrFormat(
                            "shard %zu @ %s:%d unavailable: %s", a.shard,
                            link.endpoint.host.c_str(), link.endpoint.port,
                            a.status.message().c_str()));
      }
    } else if (failure.ok()) {
      rows_gathered += a.partial.num_rows();
      bytes_gathered += a.body_bytes;
    }
    if (a.resends > 0) RetriesCounter().Add(static_cast<uint64_t>(a.resends));
    arrivals[a.shard] = std::move(a);
  }
  for (std::thread& t : threads) t.join();
  const double scatter_ms = scatter_timer.ElapsedSeconds() * 1e3;
  ScatterHist().Observe(ToMicros(scatter_ms));
  RowsMergedCounter().Add(rows_gathered);
  BytesMovedCounter().Add(bytes_gathered + nshards * payload.size());

  if (scatter_node != nullptr) {
    scatter_node->stats.wall_ms = scatter_ms;
    scatter_node->stats.rows_out = rows_gathered;
    for (size_t i = 0; i < nshards; ++i) {
      const Arrival& a = arrivals[i];
      obs::TraceNode* shard_node = scatter_node->AddChild(
          "shard",
          StrFormat("shard %zu @ %s:%d: %llu partial rows, %llu body bytes%s",
                    i, links_[i]->endpoint.host.c_str(),
                    links_[i]->endpoint.port,
                    static_cast<unsigned long long>(a.rows),
                    static_cast<unsigned long long>(a.body_bytes),
                    a.resends > 0
                        ? StrFormat(", %d resends", a.resends).c_str()
                        : (a.status.ok() ? "" : " (failed)")));
      shard_node->stats.wall_ms = a.wall_ms;
    }
  }
  if (!failure.ok()) return failure;

  // The replies in shard order, rolled up once. InsertInto checks each
  // reply's arity and types and translates its dictionary codes.
  Stopwatch merge_timer;
  Table all = std::move(arrivals[0].partial);
  for (size_t i = 1; i < nshards; ++i) {
    PCTAGG_RETURN_IF_ERROR(InsertInto(&all, arrivals[i].partial));
    arrivals[i].partial = Table();
  }
  std::vector<std::string> names;
  names.reserve(partials.size());
  for (const AggSpec& p : partials) names.push_back(p.output_name);
  PCTAGG_ASSIGN_OR_RETURN(Table merged,
                          RollUp(partials, all, cols, names, CurrentDop()));
  const double merge_ms = merge_timer.ElapsedSeconds() * 1e3;
  GatherMergeHist().Observe(ToMicros(merge_ms));

  obs::TraceNode* gather_node = nullptr;
  if (trace != nullptr) {
    PlanStep step = GatherStep(nshards, cols.size(), partials.size());
    gather_node = trace->root().AddChild(std::move(step.label),
                                         std::move(step.detail));
    gather_node->stats.rows_in = rows_gathered;
    gather_node->stats.rows_out = merged.num_rows();
    gather_node->stats.wall_ms = merge_ms;
    trace->actual_group_rows = static_cast<double>(merged.num_rows());
  }
  return merged;
}

size_t Coordinator::WorkerDop(const QueryOptions& options) const {
  return config_.worker_dop != 0 ? config_.worker_dop
                                 : options.degree_of_parallelism;
}

obs::PlanHeader Coordinator::PlanDistributed(
    const AnalyzedQuery& query, const PartialPlan& plan,
    const ShardedMeta& meta, const QueryOptions& options) const {
  // The distributed plan next to the single-node fused scan it replaces,
  // both priced from the planner statistics resolved at SHARD time (the
  // stub has no rows left to describe).
  obs::PlanHeader header;
  header.query_class = QueryClassName(query.query_class);
  header.strategy = "partial from shards";
  header.strategy_source = "topology";
  const size_t nshards = links_.size();
  const size_t worker_dop = std::max<size_t>(1, WorkerDop(options));
  const size_t dop = std::max<size_t>(1, options.degree_of_parallelism);
  CostModel model;
  FactStats stats;
  stats.rows = meta.stats.rows();
  Result<FactStats> estimated =
      model.EstimateStats(meta.stats, plan.finest_cols, {}, {});
  if (estimated.ok()) stats = *estimated;
  header.predicted_costs.push_back(
      {StrFormat("distributed (%zu shards x dop %zu)", nshards, worker_dop),
       model.DistributedCost(
           stats, static_cast<double>(nshards),
           static_cast<double>(worker_dop),
           static_cast<double>(plan.finest_cols.size() +
                               plan.partials.size())),
       true});
  stats.dop = static_cast<double>(dop);
  header.predicted_costs.push_back(
      {StrFormat("single-node fused scan (dop %zu)", dop),
       model.FusedVpctCost(stats), false});
  header.predicted_group_rows = stats.group_cardinality;
  return header;
}

Result<Table> Coordinator::ExecuteDistributed(const AnalyzedQuery& query,
                                              const ShardedMeta& meta,
                                              const QueryOptions& options,
                                              obs::QueryTrace* trace) {
  PCTAGG_ASSIGN_OR_RETURN(PartialPlan plan, BuildPartialPlan(query));
  if (trace != nullptr) {
    static_cast<obs::PlanHeader&>(*trace) =
        PlanDistributed(query, plan, meta, options);
  }
  // Gather and assemble locally at the session's dop, exactly as a single
  // node assembles from its fused scan, then apply the statement tail.
  ScopedParallelism parallelism(options.degree_of_parallelism);
  PCTAGG_ASSIGN_OR_RETURN(
      Table merged, ScatterGather(plan.partial_sql, plan.finest_cols,
                                  plan.partials, WorkerDop(options), trace));
  PCTAGG_ASSIGN_OR_RETURN(
      Table assembled,
      AssembleFromPartials(plan, std::make_shared<const Table>(
                                     std::move(merged)),
                           /*summaries=*/nullptr, trace, CurrentDop()));
  return ApplyQueryTail(std::move(assembled), query);
}

std::shared_ptr<const MqoBatchScan> Coordinator::ScatterMqoBatch(
    const std::vector<MqoGate::Member*>& members, const ShardedMeta& meta,
    const QueryOptions& options) {
  if (members.size() < 2) return nullptr;
  std::vector<const AnalyzedQuery*> queries;
  queries.reserve(members.size());
  bool traced = false;
  for (const MqoGate::Member* m : members) {
    queries.push_back(m->query);
    traced |= m->trace != nullptr;
  }
  Result<MqoBatchPlan> plan = PlanMqoBatch(queries);
  if (!plan.ok()) return nullptr;
  auto batch = std::make_shared<MqoBatchScan>();
  batch->plan = std::move(*plan);
  const MqoBatchPlan& bp = batch->plan;

  // One scatter of the merged partial statement serves the whole batch.
  obs::QueryTrace scan_trace;
  ScopedParallelism parallelism(options.degree_of_parallelism);
  Result<Table> merged =
      ScatterGather(bp.scan_sql, bp.scan_cols, bp.scan_partials,
                    WorkerDop(options), traced ? &scan_trace : nullptr);
  if (!merged.ok()) return batch;
  batch->partials = std::make_shared<const Table>(std::move(*merged));
  AttachMqoScanTrace(
      batch.get(),
      StrFormat("%zu queries share one scatter of %s (%zu partials deduped "
                "from %zu; %zu shards scanned once instead of %zu times)",
                members.size(), bp.table.c_str(), bp.scan_partials.size(),
                bp.partials_requested, links_.size(), members.size()),
      &scan_trace);
  mqo_gate_.RecordScanRowsSaved(static_cast<uint64_t>(meta.total_rows) *
                                (members.size() - 1));
  return batch;
}

std::string Coordinator::Describe() const {
  std::string out = StrFormat("%zu workers", links_.size());
  for (size_t i = 0; i < links_.size(); ++i) {
    out += StrFormat(
        " [%zu]%s:%d sent=%llu recv=%llu", i,
        links_[i]->endpoint.host.c_str(), links_[i]->endpoint.port,
        static_cast<unsigned long long>(
            links_[i]->bytes_sent.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            links_[i]->bytes_received.load(std::memory_order_relaxed)));
  }
  std::lock_guard<std::mutex> lock(tables_mu_);
  for (const auto& [name, meta] : tables_) {
    out += StrFormat("; %s(key=%s rows=%zu)", name.c_str(),
                     meta.key_column.c_str(), meta.total_rows);
  }
  return out;
}

}  // namespace dist
}  // namespace pctagg
