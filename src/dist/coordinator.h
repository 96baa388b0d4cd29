#ifndef PCTAGG_DIST_COORDINATOR_H_
#define PCTAGG_DIST_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "core/partial_plan.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/dist_router.h"

namespace pctagg {
namespace dist {

struct WorkerEndpoint {
  std::string host;
  int port = 0;
};

struct CoordinatorConfig {
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
};

// The network half of sharding (docs/SHARDING.md): one persistent PctClient
// link per worker. SHARD hash-partitions a local table across the workers
// (src/dist/shard.h), ships each shard as SHARDDATA and hands the table to
// PctDatabase::InstallShards, which keeps a zero-row stub of it with the
// SHARD-time statistics and this coordinator as its ShardFetch. From then
// on the database plans and answers every read of the table itself; the
// coordinator only scatters the one PARTIAL statement the plan's `scatter`
// step asks for, merges the replies in its `gather-merge` step, and fans a
// DROP out to the workers.
//
// Thread-safe: many sessions may fetch concurrently. Each worker link is a
// mutex-protected single-in-flight connection, so concurrent fetches
// serialize per worker but overlap across workers.
class Coordinator : public DistRouter, public ShardFetch {
 public:
  Coordinator(PctDatabase* db, std::vector<WorkerEndpoint> workers,
              CoordinatorConfig config = CoordinatorConfig());
  ~Coordinator() override;

  // DistRouter:
  Status ShardTable(const std::string& table,
                    const std::string& key_column) override;
  std::string Describe() const override;

  // ShardFetch: one PARTIAL to every shard, then the replies concatenated
  // in shard order and rolled up once (RollUp, at `dop`). One scatter costs
  // one pctagg_dist_queries_total, however many queries it serves.
  size_t num_shards() const override { return links_.size(); }
  Result<std::vector<Table>> Scatter(const std::string& partial_sql,
                                     size_t dop,
                                     obs::TraceNode* node) override;
  Result<Table> Gather(std::vector<Table> replies,
                       const std::vector<std::string>& cols,
                       const std::vector<AggSpec>& partials,
                       size_t dop) override;
  Status Drop(const std::string& table) override;

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

  // Dials the link's endpoint if not connected (caller holds link->mu).
  Status EnsureConnected(ShardLink* link);

  PctDatabase* db_;
  CoordinatorConfig config_;
  std::vector<std::unique_ptr<ShardLink>> links_;
};

}  // namespace dist
}  // namespace pctagg

#endif  // PCTAGG_DIST_COORDINATOR_H_
