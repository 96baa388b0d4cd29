#ifndef PCTAGG_SERVER_EXECUTOR_H_
#define PCTAGG_SERVER_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "server/mqo_gate.h"

namespace pctagg {

struct ExecutorConfig {
  // Worker threads running queries; 0 = use the process-wide
  // SharedThreadPool() (hardware_concurrency, min 2), which the engine's
  // morsel dispatcher also draws from, so one pool bounds total parallelism.
  // A nonzero value gives this executor a private pool of that size.
  size_t worker_threads = 0;
  // Admission limit: statements submitted but not yet finished (running or
  // queued). Beyond this, new statements are rejected with kUnavailable so
  // overload degrades into fast typed errors instead of an unbounded pile-up.
  size_t max_in_flight = 64;
  // Multi-query batching gate (server/mqo_gate.h; SET mqo): leader collection
  // window and early-close batch size. Batch members occupy pool threads
  // while parked, so mqo_max_batch should not exceed the pool size.
  uint64_t mqo_window_ms = 2;
  size_t mqo_max_batch = 16;
};

// Runs statements against one shared PctDatabase with reader/writer
// discipline: queries (SELECT) run concurrently under a shared lock, every
// other statement (CREATE TABLE AS, INSERT, COPY, DROP, CHECKPOINT) and the
// non-SQL writers (GEN, DROP, .load) take the lock exclusively, so a writer
// can never swap a table out from under a running scan. Everything below
// the lock — catalog registry, temp tables, summary cache — is already
// internally synchronized (see PctDatabase::Query).
//
// Each statement is submitted to a ThreadPool and the calling (connection)
// thread waits on the result with a wall-clock deadline that runs from
// admission. On timeout — or when the statement finished after the deadline
// and the caller's wait merely woke late — the caller gets kTimeout; the
// worker finishes in the background and its result is discarded (the engine
// has no cancellation points), still occupying an in-flight slot until it
// completes — which is exactly what the admission limit should count.
class QueryExecutor {
 public:
  QueryExecutor(PctDatabase* db, ExecutorConfig config);
  ~QueryExecutor();  // waits for every submitted statement to finish

  QueryExecutor(const QueryExecutor&) = delete;
  QueryExecutor& operator=(const QueryExecutor&) = delete;

  // Parses one SQL statement (ParseStatement, sql/parser.h) on the calling
  // thread, so a malformed one takes no pool slot, then runs it: a SELECT or
  // its EXPLAIN forms under the shared lock, through the MQO gate when it
  // executes, and every other statement through PctDatabase::Execute under
  // the exclusive lock. `timeout_ms` of 0 means no deadline. A non-null
  // `trace` collects the executed-plan trace (SET trace on); it is shared
  // because a timed-out statement keeps running in the background and must
  // not write into a freed trace.
  Result<Table> ExecuteStatement(const std::string& sql,
                                 const QueryOptions& options,
                                 uint64_t timeout_ms,
                                 std::shared_ptr<obs::QueryTrace> trace =
                                     nullptr);

  // Runs `fn` under the exclusive (writer) lock through the same
  // admission/timeout machinery. For catalog mutations that are not SQL:
  // GEN, DROP, .load.
  Status ExecuteWrite(std::function<Status()> fn, uint64_t timeout_ms);

  // Runs `fn` under the shared (reader) lock: TABLES, SCHEMA.
  Status ExecuteRead(std::function<Status()> fn, uint64_t timeout_ms);

  const ExecutorConfig& config() const { return config_; }
  // The multi-query batching gate (SHOW renders its Describe() line).
  const MqoGate& mqo_gate() const { return mqo_gate_; }
  size_t worker_threads() const { return pool_->num_threads(); }
  // Tasks waiting in the pool's queue right now (STATS gauge).
  size_t pool_queue_depth() const { return pool_->queued(); }
  size_t in_flight() const { return in_flight_.load(); }
  uint64_t executed() const { return executed_.load(); }
  uint64_t rejected() const { return rejected_.load(); }
  uint64_t timed_out() const { return timed_out_.load(); }

 private:
  // The shared core: admission check, submit, bounded wait.
  Status Run(bool writer, std::function<Status()> fn, uint64_t timeout_ms);

  // The read path of ExecuteStatement, running on a pool worker under the
  // shared lock: a SELECT (or its EXPLAIN ANALYZE form) is analyzed once,
  // passes the MQO gate when it has a partial plan, and runs through
  // PctDatabase::QueryPrepared with the batch the gate published. Forced
  // strategies, the OLAP baseline, SET mqo off and plain EXPLAIN go to
  // PctDatabase::Execute instead.
  Result<Table> RunMqoRead(const Statement& stmt, const QueryOptions& opts,
                           uint64_t timeout_ms);

  // Batch leader body: plans and prices one closed batch and, unless a
  // singleton or SET mqo auto's cost model says solo, runs its union scan
  // once at min(Σ members' dop, cores). Null (or null partials) sends every
  // member down its own solo path.
  std::shared_ptr<const MqoBatchScan> PlanAndScanMqoBatch(
      const QueryOptions& opts, const std::vector<MqoGate::Member*>& members);

  PctDatabase* db_;
  ExecutorConfig config_;
  MqoGate mqo_gate_;
  std::shared_mutex table_lock_;
  std::atomic<size_t> in_flight_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> timed_out_{0};
  // Tracks statements handed to the pool but not yet finished, so the
  // destructor can wait for them even when the pool is the shared one (which
  // outlives this executor and therefore can't be drained by joining it).
  WaitGroup outstanding_;
  std::unique_ptr<ThreadPool> owned_pool_;  // only when worker_threads > 0
  ThreadPool* pool_;
};

}  // namespace pctagg

#endif  // PCTAGG_SERVER_EXECUTOR_H_
