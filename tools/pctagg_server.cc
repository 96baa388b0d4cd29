// pctagg_server — the standalone query service. Serves PctProtocol (see
// docs/SERVER.md) over TCP against one shared PctDatabase.
//
//   $ ./build/tools/pctagg_server --port 7477 --gen sales:sales:100000
//   pctagg_server listening on 127.0.0.1:7477 (8 workers, 64 in flight)
//
// Flags:
//   --host <addr>          listen address        (default 127.0.0.1)
//   --port <n>             listen port, 0 = ephemeral (default 7477)
//   --threads <n>          query worker threads  (default: hardware)
//   --max-inflight <n>     admission limit       (default 64)
//   --timeout-ms <n>       default per-query deadline, 0 = none (default 30000)
//   --mqo-window-ms <n>    multi-query batching collection window, sharded
//                          reads included (default 2)
//   --mqo-max-batch <n>    queries per batch before it closes early
//                          (default 16)
//   --data-dir <path>      durable storage directory; recovers any existing
//                          tables on startup and WAL-logs appends
//   --wal-fsync <policy>   always | batch | off  (default batch)
//   --load <table>:<csv>   preload a CSV file as a base table (repeatable)
//   --gen <kind>:<name>:<rows>  preload a synthetic workload table
//                          (kind: employee|sales|transactionline|census)
//
// Coordinator mode (docs/SHARDING.md) — with at least one --worker the
// server accepts SHARD and scatters queries on sharded tables:
//   --worker <host:port>   a worker pctagg_server to shard across (repeatable;
//                          shard i goes to the i-th --worker)
//   --shard-timeout-ms <n> per-shard connect/send/recv deadline (default 30000)
//   --shard-retries <n>    total attempts per shard request (default 3)
//   --shard-backoff-ms <n> initial reconnect backoff, doubling per retry up
//                          to 2000 ms (default 50)
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
// statements, checkpoint to the data dir, and write the CLEAN marker. A
// second signal force-exits immediately.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/string_util.h"
#include "dist/coordinator.h"
#include "engine/csv.h"
#include "server/server.h"
#include "storage/storage.h"
#include "workload/generators.h"

namespace {

using pctagg::PctDatabase;
using pctagg::Result;
using pctagg::ServerConfig;
using pctagg::Status;
using pctagg::Table;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) {
  if (g_stop != 0) std::_Exit(130);  // second signal: give up on draining
  g_stop = 1;
}

// Splits "a:b[:c]" on ':'.
std::vector<std::string> SplitColons(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = s.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, colon - start));
    start = colon + 1;
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host A] [--port N] [--threads N] "
               "[--max-inflight N] [--timeout-ms N] [--mqo-window-ms N] "
               "[--mqo-max-batch N] [--data-dir DIR] "
               "[--wal-fsync always|batch|off] [--load t:file.csv]... "
               "[--gen kind:name:rows]... [--worker host:port]... "
               "[--shard-timeout-ms N] [--shard-retries N] "
               "[--shard-backoff-ms N]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  PctDatabase db;
  ServerConfig config;
  config.port = 7477;
  std::string data_dir;
  std::string wal_fsync = "batch";
  // --load/--gen are deferred until storage is attached so preloaded tables
  // are persisted regardless of flag order.
  std::vector<std::string> load_specs, gen_specs;
  std::vector<pctagg::dist::WorkerEndpoint> workers;
  pctagg::dist::CoordinatorConfig dist_config;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.port = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.worker_threads = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.max_in_flight = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.default_timeout_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--mqo-window-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.mqo_window_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--mqo-max-batch") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      config.mqo_max_batch = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      data_dir = v;
    } else if (arg == "--wal-fsync") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      wal_fsync = v;
    } else if (arg == "--load") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      load_specs.push_back(v);
    } else if (arg == "--gen") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      gen_specs.push_back(v);
    } else if (arg == "--worker") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      std::vector<std::string> parts = SplitColons(v);
      if (parts.size() != 2) return Usage(argv[0]);
      workers.push_back({parts[0], std::atoi(parts[1].c_str())});
    } else if (arg == "--shard-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      dist_config.shard_timeout_ms = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--shard-retries") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      dist_config.shard_attempts = std::atoi(v);
    } else if (arg == "--shard-backoff-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      dist_config.backoff_initial_ms = static_cast<uint64_t>(std::atoll(v));
    } else {
      return Usage(argv[0]);
    }
  }

  if (!data_dir.empty()) {
    pctagg::storage::StorageOptions opts;
    opts.data_dir = data_dir;
    Result<pctagg::storage::FsyncPolicy> policy =
        pctagg::storage::ParseFsyncPolicy(wal_fsync);
    if (!policy.ok()) {
      std::fprintf(stderr, "--wal-fsync %s: %s\n", wal_fsync.c_str(),
                   policy.status().ToString().c_str());
      return 1;
    }
    opts.fsync = *policy;
    Status st = db.OpenStorage(opts);
    if (!st.ok()) {
      std::fprintf(stderr, "--data-dir %s: %s\n", data_dir.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    const pctagg::storage::RecoveryStats& rec =
        db.storage()->recovery_stats();
    std::fprintf(stderr,
                 "recovered %s: %zu tables (%llu rows) from segments, "
                 "%zu WAL records (%llu rows) replayed, %llu torn bytes "
                 "discarded%s%s, %s shutdown, %.1f ms\n",
                 data_dir.c_str(), rec.tables_loaded,
                 (unsigned long long)rec.segment_rows,
                 rec.wal_records_replayed,
                 (unsigned long long)rec.wal_rows_replayed,
                 (unsigned long long)rec.wal_discarded_bytes,
                 rec.wal_tail_reason.empty() ? "" : ": ",
                 rec.wal_tail_reason.c_str(),
                 rec.clean_shutdown ? "clean" : "unclean", rec.recovery_ms);
  } else if (wal_fsync != "batch") {
    std::fprintf(stderr, "--wal-fsync requires --data-dir\n");
    return 1;
  }

  for (const std::string& spec : load_specs) {
    std::vector<std::string> parts = SplitColons(spec);
    if (parts.size() != 2) return Usage(argv[0]);
    Result<Table> t = pctagg::ReadCsvFileAuto(parts[1]);
    if (!t.ok()) {
      std::fprintf(stderr, "--load %s: %s\n", spec.c_str(),
                   t.status().ToString().c_str());
      return 1;
    }
    Status st = db.ReplaceTable(parts[0], std::move(t).value());
    if (!st.ok()) {
      std::fprintf(stderr, "--load %s: %s\n", spec.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded %s from %s\n", parts[0].c_str(),
                 parts[1].c_str());
  }
  for (const std::string& spec : gen_specs) {
    std::vector<std::string> parts = SplitColons(spec);
    if (parts.size() != 3) return Usage(argv[0]);
    size_t rows = static_cast<size_t>(std::atoll(parts[2].c_str()));
    std::string kind = pctagg::ToLower(parts[0]);
    Table t;
    if (kind == "employee") {
      t = pctagg::GenerateEmployee(rows);
    } else if (kind == "sales") {
      t = pctagg::GenerateSales(rows);
    } else if (kind == "transactionline") {
      t = pctagg::GenerateTransactionLine(rows);
    } else if (kind == "census") {
      t = pctagg::GenerateCensusLike(rows);
    } else {
      std::fprintf(stderr, "--gen: unknown kind %s\n", parts[0].c_str());
      return 1;
    }
    Status st = db.ReplaceTable(parts[1], std::move(t));
    if (!st.ok()) {
      std::fprintf(stderr, "--gen %s: %s\n", spec.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "generated %zu %s rows into %s\n", rows,
                 kind.c_str(), parts[1].c_str());
  }

  std::unique_ptr<pctagg::dist::Coordinator> coordinator;
  if (!workers.empty()) {
    coordinator = std::make_unique<pctagg::dist::Coordinator>(
        &db, workers, dist_config);
    config.router = coordinator.get();
    std::fprintf(stderr, "coordinator mode: %s\n",
                 coordinator->Describe().c_str());
  }

  pctagg::PctServer server(&db, config);
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "pctagg_server listening on %s:%d (%zu workers, %zu in "
               "flight, %llu ms timeout)\n",
               config.host.c_str(), server.port(),
               server.executor().worker_threads(), config.max_in_flight,
               (unsigned long long)config.default_timeout_ms);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    ::usleep(100 * 1000);
  }
  std::fprintf(stderr, "shutting down (%zu sessions served)\n",
               server.sessions_opened());
  // Stop() closes the listener and joins every connection thread; a
  // timed-out statement may still be draining in the worker pool, so the
  // final checkpoint runs under the executor's exclusive lock, which waits
  // it out.
  server.Stop();
  if (db.HasStorage()) {
    pctagg::storage::StorageManager::CheckpointStats stats;
    Status ck = server.executor().ExecuteWrite(
        [&db, &stats]() -> Status {
          Result<pctagg::storage::StorageManager::CheckpointStats> r =
              db.Checkpoint();
          if (!r.ok()) return r.status();
          stats = *r;
          return Status::OK();
        },
        /*timeout_ms=*/0);
    if (!ck.ok()) {
      std::fprintf(stderr, "shutdown checkpoint failed: %s\n",
                   ck.ToString().c_str());
      return 1;
    }
    Status mark = db.storage()->MarkCleanShutdown();
    if (!mark.ok()) {
      std::fprintf(stderr, "clean-shutdown marker failed: %s\n",
                   mark.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "checkpointed %zu tables (%llu rows, %llu bytes) in %.1f ms; "
                 "clean shutdown\n",
                 stats.tables, (unsigned long long)stats.rows,
                 (unsigned long long)stats.bytes, stats.ms);
  }
  return 0;
}
