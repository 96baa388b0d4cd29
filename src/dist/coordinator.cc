#include "dist/coordinator.h"

#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/cost_model.h"
#include "core/lattice_plan.h"
#include "dist/shard.h"
#include "engine/merge.h"
#include "engine/parallel.h"
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

// Same single-column "plan" rendering PctDatabase uses for EXPLAIN, so the
// wire protocol, CSV and shell print distributed plans without special
// casing.
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
    meta.shard_rows.push_back(shards[i].num_rows());
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
  if (!DistributedSupported(query, &why)) {
    return Status::InvalidArgument("distributed: " + why + " (table '" +
                                   stmt->from_table + "' is sharded)");
  }

  if (kind->explain && !kind->analyze) {
    PCTAGG_ASSIGN_OR_RETURN(Table plan,
                            ExplainDistributed(query, meta, options));
    return std::optional<Table>(std::move(plan));
  }
  if (kind->explain) {
    obs::QueryTrace analyze_trace;
    analyze_trace.query_class = QueryClassName(query.query_class);
    Stopwatch timer;
    PCTAGG_ASSIGN_OR_RETURN(
        Table result, ExecuteDistributed(query, meta, options, &analyze_trace));
    analyze_trace.total_ms = timer.ElapsedSeconds() * 1e3;
    (void)result;
    return std::optional<Table>(TextToPlanTable(analyze_trace.Render()));
  }
  if (trace != nullptr) {
    trace->query_class = QueryClassName(query.query_class);
  }
  // Route plain distributed SELECTs through the MQO gate: compatible queries
  // arriving within the collection window scatter ONE merged PARTIAL per
  // worker instead of N. Singletons fall through to the plain path inside
  // ExecuteDistributedBatch.
  if (options.mqo != MqoMode::kOff && meta.total_rows > 0) {
    const std::string key =
        MqoCompatibilityKey(query) +
        StrFormat("|dist|d%zu", options.degree_of_parallelism);
    MqoGate::Member member{&query, kind->select_sql, trace};
    Result<Table> batched = mqo_gate_.Run(
        key, member,
        [this, &meta, &options](std::vector<MqoGate::Member*>& members) {
          ExecuteDistributedBatch(members, meta, options);
        });
    if (!batched.ok()) return batched.status();
    return std::optional<Table>(std::move(*batched));
  }
  PCTAGG_ASSIGN_OR_RETURN(Table result,
                          ExecuteDistributed(query, meta, options, trace));
  return std::optional<Table>(std::move(result));
}

Result<Table> Coordinator::ScatterGather(const std::string& partial_sql,
                                         size_t num_key_cols,
                                         const std::vector<AggSpec>& combine,
                                         size_t worker_dop,
                                         obs::QueryTrace* trace) {
  const size_t nshards = links_.size();
  const std::string payload =
      StrFormat("%zu %s", worker_dop, partial_sql.c_str());
  QueriesCounter().Add(1);

  obs::TraceNode* scatter_node = nullptr;
  if (trace != nullptr) {
    scatter_node = trace->root().AddChild(
        "scatter", StrFormat("PARTIAL %zu %s -> %zu shards", worker_dop,
                             partial_sql.c_str(), nshards));
  }

  // Scatter: one thread per shard holds that link's mutex for the whole
  // request. Gather runs on this thread, merging each partial as it arrives
  // — the serial merge of shard k overlaps the still-running scans of
  // shards k+1.., which is what makes the fan-out a pipeline rather than a
  // barrier.
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

  Table merged;
  bool have_merged = false;
  Status failure = Status::OK();
  uint64_t rows_gathered = 0;
  uint64_t bytes_gathered = 0;
  double merge_ms = 0;
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
      Stopwatch merge_timer;
      if (!have_merged) {
        merged = std::move(a.partial);
        have_merged = true;
      } else {
        Result<Table> m =
            MergeSummaries(merged, a.partial, num_key_cols, combine);
        if (!m.ok()) failure = m.status();
        else merged = std::move(*m);
      }
      merge_ms += merge_timer.ElapsedSeconds() * 1e3;
    }
    if (a.resends > 0) RetriesCounter().Add(static_cast<uint64_t>(a.resends));
    arrivals[a.shard] = std::move(a);
    arrivals[a.shard].partial = Table();  // merged or irrelevant; free it
  }
  for (std::thread& t : threads) t.join();
  const double scatter_ms = scatter_timer.ElapsedSeconds() * 1e3;
  ScatterHist().Observe(ToMicros(scatter_ms));
  GatherMergeHist().Observe(ToMicros(merge_ms));
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

  obs::TraceNode* gather_node = nullptr;
  if (trace != nullptr) {
    gather_node = trace->root().AddChild(
        "gather-merge",
        StrFormat("merged %zu shard partials (%zu group cols, %zu aggregates)",
                  nshards, num_key_cols, combine.size()));
    gather_node->stats.rows_in = rows_gathered;
    gather_node->stats.rows_out = merged.num_rows();
    gather_node->stats.wall_ms = merge_ms;
    trace->actual_group_rows = static_cast<double>(merged.num_rows());
  }
  return merged;
}

Result<Table> Coordinator::ExecuteDistributed(const AnalyzedQuery& query,
                                              const ShardedMeta& meta,
                                              const QueryOptions& options,
                                              obs::QueryTrace* trace) {
  PCTAGG_ASSIGN_OR_RETURN(DistPartialPlan plan,
                          BuildDistributedPartialPlan(query));
  const size_t nshards = links_.size();
  const size_t worker_dop =
      config_.worker_dop != 0 ? config_.worker_dop
                              : options.degree_of_parallelism;

  // Cost-model bookkeeping for EXPLAIN ANALYZE: the distributed plan next to
  // the single-node fused scan it replaces, both from the planner statistics
  // resolved at SHARD time (the stub has no rows left to describe).
  if (trace != nullptr) {
    trace->strategy = "distributed scatter/gather";
    trace->strategy_source = "topology";
    CostModel model;
    FactStats stats;
    stats.rows = meta.stats.rows();
    Result<FactStats> estimated =
        model.EstimateStats(meta.stats, plan.finest_cols, {}, {});
    if (estimated.ok()) stats = *estimated;
    const double dist_cost = model.DistributedCost(
        stats, static_cast<double>(nshards),
        static_cast<double>(std::max<size_t>(1, worker_dop)),
        static_cast<double>(plan.finest_cols.size() + plan.partials.size()));
    trace->predicted_costs.push_back(
        {StrFormat("distributed (%zu shards x dop %zu)", nshards,
                   std::max<size_t>(1, worker_dop)),
         dist_cost, true});
    stats.dop = static_cast<double>(std::max<size_t>(
        1, options.degree_of_parallelism));
    trace->predicted_costs.push_back(
        {StrFormat("single-node fused scan (dop %zu)",
                   std::max<size_t>(1, options.degree_of_parallelism)),
         model.FusedVpctCost(stats), false});
    trace->predicted_group_rows = stats.group_cardinality;
  }

  PCTAGG_ASSIGN_OR_RETURN(
      Table merged,
      ScatterGather(plan.partial_sql, plan.finest_cols.size(), plan.combine,
                    worker_dop, trace));

  // Assemble locally at the session's dop, exactly as the single-node
  // lattice assembles from its fused scan, then apply the statement tail.
  ScopedParallelism parallelism(options.degree_of_parallelism);
  auto finest = std::make_shared<const Table>(std::move(merged));
  PCTAGG_ASSIGN_OR_RETURN(
      Table assembled,
      AssembleFromPartials(query, finest, trace, CurrentDop()));
  return ApplyQueryTail(std::move(assembled), query);
}

void Coordinator::ExecuteDistributedBatch(
    std::vector<MqoGate::Member*>& members, const ShardedMeta& meta,
    const QueryOptions& options) {
  auto run_solo = [this, &meta, &options](MqoGate::Member* m) {
    m->result = ExecuteDistributed(*m->query, meta, options, m->trace);
  };
  if (members.size() < 2) {
    for (MqoGate::Member* m : members) run_solo(m);
    return;
  }
  std::vector<const AnalyzedQuery*> queries;
  queries.reserve(members.size());
  for (MqoGate::Member* m : members) queries.push_back(m->query);
  Result<MqoBatchPlan> plan = PlanMqoBatch(queries);
  if (!plan.ok()) {
    for (MqoGate::Member* m : members) run_solo(m);
    return;
  }
  const size_t worker_dop =
      config_.worker_dop != 0 ? config_.worker_dop
                              : options.degree_of_parallelism;

  obs::QueryTrace* lead_trace = nullptr;
  for (MqoGate::Member* m : members) {
    if (m->trace == nullptr) continue;
    if (lead_trace == nullptr) lead_trace = m->trace;
    m->trace->strategy = "distributed mqo batch";
    m->trace->strategy_source = "mqo-gate";
    m->trace->root().AddChild(
        "mqo-batch",
        StrFormat("%zu queries share one scatter of %s (%zu partials deduped "
                  "from %zu; %zu shards scanned once instead of %zu times)",
                  members.size(), plan->table.c_str(),
                  plan->scan_partials.size(), plan->partials_requested,
                  links_.size(), members.size()));
  }

  // One scatter of the merged partial statement serves the whole batch; the
  // scatter/shard trace nodes land on the first traced member only (the
  // scatter genuinely ran once).
  Result<Table> merged =
      ScatterGather(plan->scan_sql, plan->scan_cols.size(),
                    plan->scan_combine, worker_dop, lead_trace);
  if (!merged.ok()) {
    for (MqoGate::Member* m : members) run_solo(m);
    return;
  }
  mqo_gate_.RecordScanRowsSaved(static_cast<uint64_t>(meta.total_rows) *
                                (members.size() - 1));

  ScopedParallelism parallelism(options.degree_of_parallelism);
  const size_t dop = CurrentDop();
  for (size_t i = 0; i < members.size(); ++i) {
    members[i]->result =
        AssembleMqoMember(plan->members[i], *merged, members[i]->trace, dop);
  }
}

Result<Table> Coordinator::ExplainDistributed(const AnalyzedQuery& query,
                                              const ShardedMeta& meta,
                                              const QueryOptions& options) {
  PCTAGG_ASSIGN_OR_RETURN(DistPartialPlan plan,
                          BuildDistributedPartialPlan(query));
  const size_t worker_dop =
      config_.worker_dop != 0 ? config_.worker_dop
                              : options.degree_of_parallelism;
  std::string text = StrFormat(
      "-- distributed scatter/gather: %zu shards of %s (hash on %s, %zu "
      "rows)\n",
      links_.size(), query.table_name.c_str(), meta.key_column.c_str(),
      meta.total_rows);
  for (size_t i = 0; i < links_.size(); ++i) {
    text += StrFormat("-- shard %zu @ %s:%d: %zu rows\n", i,
                      links_[i]->endpoint.host.c_str(),
                      links_[i]->endpoint.port,
                      i < meta.shard_rows.size() ? meta.shard_rows[i] : 0);
  }
  text += StrFormat("scatter: PARTIAL %zu %s\n", worker_dop,
                    plan.partial_sql.c_str());
  text +=
      "gather: merge shard partials as they arrive (keyed upsert on [" +
      Join(plan.finest_cols, ", ") +
      "], dictionaries translated; no barrier)\n";
  text +=
      "assemble: roll up lattice levels / percentages from the merged "
      "partials, then HAVING / ORDER BY / LIMIT coordinator-side\n";
  return TextToPlanTable(text);
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
