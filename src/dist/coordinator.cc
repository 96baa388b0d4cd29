#include "dist/coordinator.h"

#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "dist/shard.h"
#include "engine/table_ops.h"
#include "obs/metrics.h"
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
    : db_(db), config_(config) {
  links_.reserve(workers.size());
  for (WorkerEndpoint& w : workers) {
    auto link = std::make_unique<ShardLink>();
    link->endpoint = std::move(w);
    links_.push_back(std::move(link));
  }
}

Coordinator::~Coordinator() = default;

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
  if (db_->HasStorage()) {
    // The data directory would checkpoint the zero-row stub, not the
    // sharding, so a restart would answer from an empty table.
    return Status::InvalidArgument(
        "SHARD: this server persists its tables (--data-dir) and a sharded "
        "table cannot be persisted; shard from a coordinator without a data "
        "directory");
  }
  if (db_->Sharding(table) != nullptr) {
    return Status::InvalidArgument(
        "SHARD: table '" + table +
        "' is already sharded; reload the base table to reshard");
  }
  PCTAGG_ASSIGN_OR_RETURN(const Table* full, db_->catalog().GetTable(table));

  // Resolve the full table's planner statistics now: after the scatter the
  // local copy is a zero-row stub and this snapshot is all the cost model
  // gets.
  ShardedTable sharded;
  sharded.key_column = ToLower(key_column);
  sharded.shards = this;
  PCTAGG_ASSIGN_OR_RETURN(sharded.stats, db_->PlannerStatistics(table));

  PCTAGG_ASSIGN_OR_RETURN(
      std::vector<Table> shards,
      HashPartitionTable(*full, key_column, links_.size()));

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

  return db_->InstallShards(table, std::move(sharded));
}

Status Coordinator::Drop(const std::string& table) {
  for (size_t i = 0; i < links_.size(); ++i) {
    ShardLink* link = links_[i].get();
    std::lock_guard<std::mutex> lock(link->mu);
    Status st = EnsureConnected(link);
    if (st.ok()) {
      // IF EXISTS: a worker that lost the shard (restart) should not block
      // the coordinator from forgetting the table.
      Result<WireResponse> resp =
          link->client.Query("DROP TABLE IF EXISTS " + table);
      if (!resp.ok()) st = resp.status();
      else if (!resp->status.ok()) st = resp->status;
    }
    if (!st.ok()) {
      ShardErrorsCounter().Add(1);
      return Status::Unavailable(StrFormat(
          "DROP: shard %zu @ %s:%d failed: %s", i, link->endpoint.host.c_str(),
          link->endpoint.port, st.message().c_str()));
    }
  }
  return Status::OK();
}

Result<std::vector<Table>> Coordinator::Scatter(const std::string& partial_sql,
                                                size_t dop,
                                                obs::TraceNode* node) {
  const size_t nshards = links_.size();
  const std::string payload = StrFormat("%zu %s", dop, partial_sql.c_str());
  QueriesCounter().Add(1);

  // One thread per shard holds that link's mutex for the whole request.
  // This thread keeps each reply by shard index, so Gather can merge them in
  // shard order and the answer does not depend on which shard replied
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

  if (node != nullptr) {
    node->stats.rows_out = rows_gathered;
    for (size_t i = 0; i < nshards; ++i) {
      const Arrival& a = arrivals[i];
      obs::TraceNode* shard_node = node->AddChild(
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
  std::vector<Table> replies;
  replies.reserve(nshards);
  for (Arrival& a : arrivals) replies.push_back(std::move(a.partial));
  return replies;
}

Result<Table> Coordinator::Gather(std::vector<Table> replies,
                                  const std::vector<std::string>& cols,
                                  const std::vector<AggSpec>& partials,
                                  size_t dop) {
  // The replies in shard order, rolled up once. InsertInto checks each
  // reply's arity and types and translates its dictionary codes.
  Stopwatch merge_timer;
  Table all = std::move(replies[0]);
  for (size_t i = 1; i < replies.size(); ++i) {
    PCTAGG_RETURN_IF_ERROR(InsertInto(&all, replies[i]));
    replies[i] = Table();
  }
  std::vector<std::string> names;
  names.reserve(partials.size());
  for (const AggSpec& p : partials) names.push_back(p.output_name);
  PCTAGG_ASSIGN_OR_RETURN(Table merged,
                          RollUp(partials, all, cols, names, dop));
  GatherMergeHist().Observe(ToMicros(merge_timer.ElapsedSeconds() * 1e3));
  return merged;
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
  for (const std::string& name : db_->catalog().TableNames()) {
    const std::shared_ptr<const ShardedTable> sharded = db_->Sharding(name);
    if (sharded == nullptr) continue;
    out += StrFormat("; %s(key=%s rows=%.0f)", ToLower(name).c_str(),
                     sharded->key_column.c_str(), sharded->stats.rows());
  }
  return out;
}

}  // namespace dist
}  // namespace pctagg
