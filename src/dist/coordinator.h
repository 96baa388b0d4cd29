#ifndef PCTAGG_DIST_COORDINATOR_H_
#define PCTAGG_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "core/mqo_plan.h"
#include "server/client.h"
#include "server/dist_router.h"
#include "server/mqo_gate.h"
#include "sql/analyzer.h"

namespace pctagg {
namespace dist {

struct WorkerEndpoint {
  std::string host;
  int port = 0;
};

struct CoordinatorConfig {
  // Degree of parallelism each worker runs its partial aggregation at.
  // 0 = forward the session's dop.
  size_t worker_dop = 0;
  // Per-shard deadline covering connect, send, and the response read
  // (SO_RCVTIMEO-backed, so a hung worker turns into kTimeout, not a stuck
  // scatter thread). 0 = no deadline.
  uint64_t shard_timeout_ms = 30000;
  // Total send attempts per shard request; transport failures between
  // attempts re-dial with exponential backoff (server/client.h). PARTIAL is
  // idempotent (read-only SELECT with the dop in the payload), so resending
  // after a lost response is safe.
  int shard_attempts = 3;
  uint64_t backoff_initial_ms = 50;
  uint64_t backoff_max_ms = 2000;
  // Multi-query batching gate (server/mqo_gate.h; SET mqo): compatible
  // concurrent distributed SELECTs arriving within the window share ONE
  // scatter of a merged PARTIAL statement instead of N scatters.
  uint64_t mqo_window_ms = 2;
  size_t mqo_max_batch = 16;
};

// The scatter/gather coordinator (docs/SHARDING.md): owns one persistent
// PctClient link per worker, the sharded-table registry, and distributed
// SELECT execution. SHARD hash-partitions a local table across the workers
// (src/dist/shard.h) leaving a zero-row stub in the local catalog — the
// stub keeps the schema visible to the analyzer and makes the same
// database object work as both coordinator and plain server.
//
// A distributed SELECT is the lattice machinery run across processes
// (core/lattice_plan.h): the coordinator rewrites the query into one
// deduplicated partial-aggregation SELECT, scatters it to every shard
// (PARTIAL verb, serde-encoded response body), merges shard partials *as
// they arrive* — no barrier; the serial merge of shard k overlaps the
// still-running scans of shards k+1.. — and assembles percentages, rollups
// and the statement tail locally. INT64 results are bit-identical to
// single-node execution; float sums carry the usual reassociation caveat
// (docs/PARALLELISM.md).
//
// Thread-safe: many sessions may execute concurrently. Each worker link is
// a mutex-protected single-in-flight connection, so concurrent distributed
// queries serialize per worker but overlap across workers.
class Coordinator : public DistRouter {
 public:
  Coordinator(PctDatabase* db, std::vector<WorkerEndpoint> workers,
              CoordinatorConfig config = CoordinatorConfig());
  ~Coordinator() override;

  size_t num_workers() const { return links_.size(); }

  // DistRouter:
  bool Routes(const std::string& table) const override;
  Result<std::optional<Table>> MaybeExecute(const std::string& sql,
                                            const QueryOptions& options,
                                            obs::QueryTrace* trace) override;
  Status ShardTable(const std::string& table,
                    const std::string& key_column) override;
  std::string Describe() const override;

  // The distributed multi-query batching gate (tests/metrics).
  const MqoGate& mqo_gate() const { return mqo_gate_; }

 private:
  // One worker: endpoint, a lazily-dialed persistent client, and transfer
  // counters (the registry has no labels, so per-shard byte counts live
  // here and surface through Describe()/trace rather than per-shard
  // metric names).
  struct ShardLink {
    WorkerEndpoint endpoint;
    std::mutex mu;  // one in-flight request per link
    PctClient client;
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> bytes_received{0};
  };

  // What the coordinator remembers about a sharded table: the shard key and
  // the full table's planner statistics, resolved *before* it was scattered
  // (the local copy becomes a zero-row stub, so this is the only place the
  // cost model can get row counts and cardinalities from).
  struct ShardedMeta {
    std::string key_column;
    size_t total_rows = 0;
    std::vector<size_t> shard_rows;  // one entry per worker
    PlannerStats stats;
  };

  // Dials the link's endpoint if not connected (caller holds link->mu).
  Status EnsureConnected(ShardLink* link);

  // Scatters one PARTIAL statement to every shard and merges the responses
  // as they arrive. `num_key_cols` leading columns of the partial result are
  // the group keys; `combine` re-aggregates the rest. This is the shared
  // primitive under both the single-query path and MQO batches (one batch of
  // N queries costs one ScatterGather, and one pctagg_dist_queries_total).
  Result<Table> ScatterGather(const std::string& partial_sql,
                              size_t num_key_cols,
                              const std::vector<AggSpec>& combine,
                              size_t worker_dop, obs::QueryTrace* trace);

  // Runs the distributed scatter/gather for an analyzed SELECT.
  Result<Table> ExecuteDistributed(const AnalyzedQuery& query,
                                   const ShardedMeta& meta,
                                   const QueryOptions& options,
                                   obs::QueryTrace* trace);

  // Batch leader body for the MQO gate: one scatter of the merged partial
  // statement serves every member; falls back to per-member
  // ExecuteDistributed when planning or the shared scatter fails.
  void ExecuteDistributedBatch(std::vector<MqoGate::Member*>& members,
                               const ShardedMeta& meta,
                               const QueryOptions& options);

  // Plain-EXPLAIN rendering of the distributed plan.
  Result<Table> ExplainDistributed(const AnalyzedQuery& query,
                                   const ShardedMeta& meta,
                                   const QueryOptions& options);

  PctDatabase* db_;
  CoordinatorConfig config_;
  MqoGate mqo_gate_;
  std::vector<std::unique_ptr<ShardLink>> links_;
  mutable std::mutex tables_mu_;
  std::map<std::string, ShardedMeta> tables_;  // key: lower-cased table name
};

}  // namespace dist
}  // namespace pctagg

#endif  // PCTAGG_DIST_COORDINATOR_H_
