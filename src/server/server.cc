#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/csv.h"
#include "obs/metrics.h"
#include "storage/serde.h"
#include "workload/generators.h"

namespace pctagg {

namespace {

obs::Counter& SessionsOpenedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_server_sessions_opened_total",
      "Connections accepted over the server's lifetime.");
  return c;
}

obs::Histogram& QueryLatencyHistogram() {
  static obs::Histogram& h = obs::GlobalMetrics().GetHistogram(
      "pctagg_server_query_latency_micros",
      "Wall-clock statement latency as seen by the connection thread.");
  return h;
}

// Builds a synthetic workload table; kinds mirror the shell's .gen command.
Result<Table> GenerateWorkload(const std::string& kind, size_t rows) {
  std::string k = ToLower(kind);
  if (k == "employee") return GenerateEmployee(rows);
  if (k == "sales") return GenerateSales(rows);
  if (k == "transactionline") return GenerateTransactionLine(rows);
  if (k == "census") return GenerateCensusLike(rows);
  return Status::InvalidArgument(
      "GEN: unknown kind (employee|sales|transactionline|census): " + kind);
}

}  // namespace

PctServer::PctServer(PctDatabase* db, ServerConfig config)
    : db_(db),
      config_(std::move(config)),
      executor_(db, ExecutorConfig{config_.worker_threads,
                                   config_.max_in_flight,
                                   config_.mqo_window_ms,
                                   config_.mqo_max_batch}) {}

PctServer::~PctServer() { Stop(); }

Status PctServer::Start() {
  if (listen_fd_ >= 0) return Status::AlreadyExists("server already started");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + config_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st(StatusCode::kUnavailable,
              std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, config_.listen_backlog) < 0) {
    Status st(StatusCode::kUnavailable,
              std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void PctServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Joining outside the lock: handlers remove themselves from open_fds_.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  listen_fd_ = -1;
}

size_t PctServer::sessions_active() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return open_fds_.size();
}

void PctServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Stop) or fatal error
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mutex_);
    open_fds_.insert(fd);
    conn_threads_.emplace_back([this, fd] { HandleConnection(fd); });
  }
}

void PctServer::HandleConnection(int fd) {
  ++sessions_opened_;
  SessionsOpenedCounter().Add();
  Session session(next_session_id_.fetch_add(1), config_.default_timeout_ms);
  LineReader reader(fd);
  bool quit = false;
  while (!quit && !stopping_.load()) {
    Result<std::string> line = reader.ReadLine();
    if (!line.ok()) {
      // Clean EOF ends the session silently; a malformed over-long frame
      // gets a final typed error before hanging up.
      if (line.status().code() == StatusCode::kInvalidArgument) {
        WireResponse resp;
        resp.status = line.status();
        WriteAll(fd, EncodeResponse(resp)).ok();
      }
      break;
    }
    if (line->empty()) continue;  // ignore blank lines (keep-alive friendly)
    WireResponse resp;
    Result<WireRequest> request = DecodeRequestLine(*line);
    if (!request.ok()) {
      resp.status = request.status();
    } else if (request->verb == RequestVerb::kShardData) {
      // The one verb with a request body: the body must be read from this
      // connection's reader before anything else touches the stream.
      resp = HandleShardData(&session, *request, &reader, &quit);
    } else {
      resp = HandleRequest(&session, *request, &quit);
    }
    if (!WriteAll(fd, EncodeResponse(resp)).ok()) break;
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    open_fds_.erase(fd);
  }
  ::close(fd);
}

WireResponse PctServer::RunStatement(Session* session, const std::string& sql,
                                     bool olap_baseline) {
  WireResponse resp;
  QueryOptions options = session->query_options();
  options.olap_baseline = olap_baseline;
  // Shared so a worker that outlives a timed-out caller (see QueryExecutor)
  // still writes into live storage; only success paths read it back.
  std::shared_ptr<obs::QueryTrace> trace;
  if (session->trace_enabled()) trace = std::make_shared<obs::QueryTrace>();
  Stopwatch timer;
  Result<Table> result = executor_.ExecuteStatement(
      sql, options, session->timeout_ms(), trace);
  resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
  QueryLatencyHistogram().Observe(resp.micros);
  session->RecordQuery(resp.micros, result.ok());
  if (!result.ok()) {
    resp.status = result.status();
    return resp;
  }
  resp.rows = result->num_rows();
  resp.cols = result->num_columns();
  if (result->num_columns() > 0) resp.body = FormatCsv(*result);
  if (trace) {
    trace->total_ms = static_cast<double>(resp.micros) / 1000.0;
    resp.body += "-- trace\n";
    resp.body += trace->Render();
  }
  return resp;
}

WireResponse PctServer::HandleShardData(Session* session,
                                        const WireRequest& request,
                                        LineReader* reader, bool* quit) {
  WireResponse resp;
  std::istringstream in(request.payload);
  std::string table, nbytes_word;
  in >> table >> nbytes_word;
  if (table.empty() || !IsInteger(nbytes_word)) {
    // The body length is unknown, so the stream cannot be resynchronized;
    // answer and hang up.
    resp.status = Status::InvalidArgument(
        "SHARDDATA expects: SHARDDATA <table> <nbytes>");
    *quit = true;
    return resp;
  }
  const uint64_t nbytes = std::strtoull(nbytes_word.c_str(), nullptr, 10);
  if (nbytes > kMaxBodyBytes) {
    resp.status = Status::LimitExceeded(
        StrFormat("SHARDDATA body of %llu bytes exceeds the %zu-byte cap",
                  (unsigned long long)nbytes, kMaxBodyBytes));
    *quit = true;
    return resp;
  }
  // Consume the body unconditionally from here on: any validation error
  // below must leave the stream positioned at the next frame line.
  Result<std::string> body = reader->ReadBytes(static_cast<size_t>(nbytes));
  if (!body.ok()) {
    resp.status = body.status();
    *quit = true;
    return resp;
  }
  storage::ByteReader bytes(*body);
  Result<Table> decoded = storage::DecodeTable(&bytes);
  if (!decoded.ok()) {
    resp.status = decoded.status();
    return resp;
  }
  const size_t rows = decoded->num_rows();
  auto shard = std::make_shared<Table>(std::move(*decoded));
  Stopwatch timer;
  Status st = executor_.ExecuteWrite(
      [this, table, shard]() -> Status {
        return db_->ReplaceTable(table, std::move(*shard));
      },
      session->timeout_ms());
  resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
  if (!st.ok()) {
    resp.status = st;
  } else {
    resp.body = StrFormat("installed shard of %s: %zu rows\n", table.c_str(),
                          rows);
  }
  return resp;
}

WireResponse PctServer::HandleRequest(Session* session,
                                      const WireRequest& request, bool* quit) {
  WireResponse resp;
  switch (request.verb) {
    case RequestVerb::kQuery:
    // APPEND is a courtesy alias: the executor picks the path from the
    // parsed statement, so writes sent via QUERY take the exclusive path too.
    case RequestVerb::kAppend:
      return RunStatement(session, request.payload, /*olap_baseline=*/false);
    case RequestVerb::kOlap:
      return RunStatement(session, request.payload, /*olap_baseline=*/true);
    case RequestVerb::kExplain: {
      // The statement path of QUERY "EXPLAIN ...": the session's options
      // apply, so both print the plan that would run, sharded tables
      // included. The body stays plain text, one plan line per line.
      Stopwatch timer;
      Result<Table> plan = executor_.ExecuteStatement(
          "EXPLAIN " + request.payload, session->query_options(),
          session->timeout_ms());
      resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
      if (!plan.ok()) {
        resp.status = plan.status();
        return resp;
      }
      for (size_t i = 0; i < plan->num_rows(); ++i) {
        resp.body += plan->column(0).StringAt(i) + "\n";
      }
      return resp;
    }
    case RequestVerb::kSet: {
      // summary_cache_mb is database-wide (the byte-budget LRU is shared by
      // every session), so it is handled here rather than in Session.
      {
        std::istringstream in(request.payload);
        std::string option, value;
        in >> option >> value;
        if (EqualsIgnoreCase(option, "wal_fsync")) {
          if (!db_->HasStorage()) {
            resp.status = Status::InvalidArgument(
                "SET wal_fsync: no data dir attached (start the server "
                "with --data-dir)");
            return resp;
          }
          Result<storage::FsyncPolicy> policy =
              storage::ParseFsyncPolicy(value);
          if (!policy.ok()) {
            resp.status = policy.status();
            return resp;
          }
          db_->storage()->set_fsync_policy(*policy);
          resp.body = StrFormat("wal_fsync = %s (global)\n",
                                storage::FsyncPolicyName(*policy));
          return resp;
        }
        if (EqualsIgnoreCase(option, "summary_cache_mb")) {
          if (!IsInteger(value)) {
            resp.status = Status::InvalidArgument(
                "SET summary_cache_mb expects an integer (MiB)");
            return resp;
          }
          size_t mb = static_cast<size_t>(
              std::strtoull(value.c_str(), nullptr, 10));
          db_->summaries().set_capacity_bytes(mb << 20);
          resp.body = StrFormat("summary_cache_mb = %zu (global)\n", mb);
          return resp;
        }
      }
      Result<std::string> r = session->ApplySet(request.payload);
      if (!r.ok()) {
        resp.status = r.status();
      } else {
        resp.body = *r + "\n";
      }
      return resp;
    }
    case RequestVerb::kShow: {
      resp.body = session->Describe();
      resp.body += StrFormat(
          "server: %zu workers, %zu in flight (max %zu), "
          "%llu executed, %llu rejected, %llu timed out, %zu sessions\n",
          executor_.worker_threads(), executor_.in_flight(),
          executor_.config().max_in_flight,
          (unsigned long long)executor_.executed(),
          (unsigned long long)executor_.rejected(),
          (unsigned long long)executor_.timed_out(), sessions_active());
      resp.body += "mqo: " + executor_.mqo_gate().Describe() + "\n";
      if (db_->HasStorage()) {
        const storage::StorageManager& sm = *db_->storage();
        resp.body += StrFormat(
            "storage: dir=%s wal_fsync=%s wal_bytes=%llu wal_fsyncs=%llu\n",
            sm.data_dir().c_str(), storage::FsyncPolicyName(sm.fsync_policy()),
            (unsigned long long)sm.wal_bytes_written(),
            (unsigned long long)sm.wal_fsyncs());
      } else {
        resp.body += "storage: none (in-memory only)\n";
      }
      if (config_.router != nullptr) {
        resp.body += "dist: " + config_.router->Describe() + "\n";
      }
      return resp;
    }
    case RequestVerb::kTables: {
      auto body = std::make_shared<std::string>("table,rows,columns\n");
      Status st = executor_.ExecuteRead(
          [this, body]() -> Status {
            const Catalog& catalog =
                static_cast<const PctDatabase*>(db_)->catalog();
            for (const std::string& name : catalog.TableNames()) {
              Result<const Table*> t = catalog.GetTable(name);
              if (!t.ok()) continue;
              *body += StrFormat("%s,%zu,%zu\n", name.c_str(),
                                 (*t)->num_rows(), (*t)->num_columns());
            }
            return Status::OK();
          },
          session->timeout_ms());
      if (!st.ok()) {
        resp.status = st;
      } else {
        resp.body = std::move(*body);
        resp.rows = static_cast<uint64_t>(
            std::count(resp.body.begin(), resp.body.end(), '\n') - 1);
        resp.cols = 3;
      }
      return resp;
    }
    case RequestVerb::kSchema: {
      auto body = std::make_shared<std::string>();
      Status st = executor_.ExecuteRead(
          [this, body, table = request.payload]() -> Status {
            Result<const Table*> t =
                static_cast<const PctDatabase*>(db_)->catalog().GetTable(
                    table);
            if (!t.ok()) return t.status();
            *body = table + "(" + (*t)->schema().ToString() + ")\n";
            return Status::OK();
          },
          session->timeout_ms());
      if (!st.ok()) {
        resp.status = st;
      } else {
        resp.body = std::move(*body);
      }
      return resp;
    }
    case RequestVerb::kGen: {
      std::istringstream in(request.payload);
      std::string kind, name, rows_word;
      in >> kind >> name >> rows_word;
      if (kind.empty() || name.empty() || !IsInteger(rows_word)) {
        resp.status = Status::InvalidArgument(
            "GEN expects: GEN <kind> <name> <rows>");
        return resp;
      }
      size_t rows = static_cast<size_t>(
          std::strtoull(rows_word.c_str(), nullptr, 10));
      Stopwatch timer;
      Status st = executor_.ExecuteWrite(
          [this, kind, name, rows]() -> Status {
            PCTAGG_ASSIGN_OR_RETURN(Table t, GenerateWorkload(kind, rows));
            return db_->ReplaceTable(name, std::move(t));
          },
          session->timeout_ms());
      resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
      if (!st.ok()) {
        resp.status = st;
      } else {
        resp.body = StrFormat("generated %zu %s rows into %s\n", rows,
                              ToLower(kind).c_str(), name.c_str());
      }
      return resp;
    }
    case RequestVerb::kDrop: {
      // Routed through PctDatabase::DropTable so the segment file and
      // manifest entry go away with the in-memory table.
      Status st = executor_.ExecuteWrite(
          [this, table = request.payload]() -> Status {
            Result<bool> dropped = db_->DropTable(table);
            if (!dropped.ok()) return dropped.status();
            return Status::OK();
          },
          session->timeout_ms());
      if (!st.ok()) {
        resp.status = st;
      } else {
        resp.body = "dropped " + request.payload + "\n";
      }
      return resp;
    }
    case RequestVerb::kCheckpoint: {
      auto stats =
          std::make_shared<storage::StorageManager::CheckpointStats>();
      Stopwatch timer;
      Status st = executor_.ExecuteWrite(
          [this, stats]() -> Status {
            Result<storage::StorageManager::CheckpointStats> r =
                db_->Checkpoint();
            if (!r.ok()) return r.status();
            *stats = *r;
            return Status::OK();
          },
          session->timeout_ms());
      resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
      if (!st.ok()) {
        resp.status = st;
      } else if (!db_->HasStorage()) {
        resp.body = "checkpoint: no data dir attached (no-op)\n";
      } else {
        resp.body = StrFormat(
            "checkpoint: %zu tables, %llu rows, %llu segment bytes, %.2f ms\n",
            stats->tables, (unsigned long long)stats->rows,
            (unsigned long long)stats->bytes, stats->ms);
      }
      return resp;
    }
    case RequestVerb::kStats: {
      // Level metrics are sampled at scrape time; the counters underneath
      // were bumped on the hot paths as they happened.
      obs::MetricsRegistry& metrics = obs::GlobalMetrics();
      metrics
          .GetGauge("pctagg_server_sessions_active",
                    "Connections currently open.")
          .Set(static_cast<int64_t>(sessions_active()));
      metrics
          .GetGauge("pctagg_server_pool_queue_depth",
                    "Statements waiting for a worker thread.")
          .Set(static_cast<int64_t>(executor_.pool_queue_depth()));
      metrics
          .GetGauge("pctagg_server_worker_threads",
                    "Worker threads serving this executor.")
          .Set(static_cast<int64_t>(executor_.worker_threads()));
      if (db_->HasStorage()) {
        const storage::StorageManager& sm = *db_->storage();
        metrics
            .GetGauge("pctagg_storage_wal_live_bytes",
                      "Bytes in the live WAL file (resets at checkpoint).")
            .Set(static_cast<int64_t>(sm.wal_bytes_written()));
        metrics
            .GetGauge("pctagg_storage_wal_live_fsyncs",
                      "fsync calls issued by the live WAL writer.")
            .Set(static_cast<int64_t>(sm.wal_fsyncs()));
      }
      resp.body = metrics.RenderPrometheus();
      return resp;
    }
    case RequestVerb::kShard: {
      std::istringstream in(request.payload);
      std::string table, column;
      in >> table >> column;
      if (table.empty() || column.empty()) {
        resp.status =
            Status::InvalidArgument("SHARD expects: SHARD <table> <column>");
        return resp;
      }
      if (config_.router == nullptr) {
        resp.status = Status::InvalidArgument(
            "SHARD: this server has no workers configured (--worker)");
        return resp;
      }
      Stopwatch timer;
      Status st = executor_.ExecuteWrite(
          [router = config_.router, table, column]() -> Status {
            return router->ShardTable(table, column);
          },
          session->timeout_ms());
      resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
      if (!st.ok()) {
        resp.status = st;
      } else {
        resp.body = StrFormat("sharded %s on %s: %s\n", table.c_str(),
                              column.c_str(),
                              config_.router->Describe().c_str());
      }
      return resp;
    }
    case RequestVerb::kPartial: {
      // PARTIAL <dop> <sql> — the dop rides in the payload (not session
      // state) so a coordinator resend after a reconnect is self-contained.
      const size_t space = request.payload.find(' ');
      const std::string dop_word = request.payload.substr(0, space);
      if (space == std::string::npos || !IsInteger(dop_word)) {
        resp.status =
            Status::InvalidArgument("PARTIAL expects: PARTIAL <dop> <sql>");
        return resp;
      }
      QueryOptions options = session->query_options();
      options.degree_of_parallelism = static_cast<size_t>(
          std::strtoull(dop_word.c_str(), nullptr, 10));
      const std::string sql = request.payload.substr(space + 1);
      Stopwatch timer;
      Result<Table> result =
          executor_.ExecuteStatement(sql, options, session->timeout_ms(),
                                     /*trace=*/nullptr);
      resp.micros = static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);
      QueryLatencyHistogram().Observe(resp.micros);
      session->RecordQuery(resp.micros, result.ok());
      if (!result.ok()) {
        resp.status = result.status();
        return resp;
      }
      resp.rows = result->num_rows();
      resp.cols = result->num_columns();
      // Binary serde body instead of CSV: the coordinator needs the exact
      // column types and dictionary payloads to merge partials losslessly.
      storage::EncodeTable(*result, &resp.body);
      return resp;
    }
    case RequestVerb::kShardData:
      // Handled in HandleConnection (needs the connection's LineReader).
      resp.status = Status::Internal("SHARDDATA dispatched without a reader");
      return resp;
    case RequestVerb::kPing:
      resp.body = "pong\n";
      return resp;
    case RequestVerb::kQuit:
      *quit = true;
      resp.body = "bye\n";
      return resp;
  }
  resp.status = Status::Internal("unhandled verb");
  return resp;
}

}  // namespace pctagg
