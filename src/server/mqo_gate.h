#ifndef PCTAGG_SERVER_MQO_GATE_H_
#define PCTAGG_SERVER_MQO_GATE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/mqo_plan.h"
#include "obs/trace.h"
#include "sql/analyzer.h"

namespace pctagg {

// Admission-side half of multi-query shared-scan batching (core/mqo_plan.h):
// a leader/follower gate keyed by MqoCompatibilityKey. The first reader to
// arrive for a key becomes the batch leader and waits a bounded collection
// window for compatible readers to join (closing early when the batch
// fills); followers that arrive while the batch is open park on it. The
// leader then does only the shared work — plan, price, and one union scan —
// and publishes the result to every member; each member, the leader
// included, finishes on its own thread as an ordinary query with the batch
// as one more source of partials (PctDatabase::QueryPrepared), which a
// declined or failed batch lacks. Queries with tight deadlines skip the gate
// (ShouldRunSolo) so batching never violates a per-query timeout.
struct MqoGateConfig {
  // Collection window the leader waits for followers before executing.
  // Short on purpose: dashboard bursts arrive within a few ms, and every
  // uncontended query pays at most one window of extra latency.
  uint64_t window_ms = 2;
  // A batch closes early once this many members joined. Members occupy
  // executor pool threads while parked, so keep this at or below the pool
  // size.
  size_t max_batch = 16;
};

class MqoGate {
 public:
  // One query in a batch. Lives on its caller's stack for the whole Run()
  // call; the leader reads every member while they are parked.
  struct Member {
    const AnalyzedQuery* query = nullptr;
    size_t dop = 1;  // the session's dop; 0 means all cores
    obs::QueryTrace* trace = nullptr;
  };
  // Plans, prices and scans a closed batch on the leader's thread, outside
  // the gate lock. Returns what every member reads (core/mqo_plan.h), or
  // null when the members should answer solo without a plan.
  using BatchFn = std::function<std::shared_ptr<const MqoBatchScan>(
      const std::vector<Member*>&)>;

  explicit MqoGate(MqoGateConfig config = MqoGateConfig()) : config_(config) {}

  MqoGate(const MqoGate&) = delete;
  MqoGate& operator=(const MqoGate&) = delete;

  // True when a query with `timeout_ms` of budget should skip the gate:
  // parking for a collection window (plus the batch execution behind it)
  // could eat a deadline this tight. 0 means no deadline — never escape.
  bool ShouldRunSolo(uint64_t timeout_ms) const {
    return timeout_ms != 0 && timeout_ms < config_.window_ms * 4;
  }

  // Joins (or opens) the batch for `key`; returns the scan its leader
  // published (null: answer solo) for the caller to finish on its thread.
  std::shared_ptr<const MqoBatchScan> Run(const std::string& key,
                                          Member& member,
                                          const BatchFn& plan_and_scan);

  // Bumps the deadline-escape counter (the caller decides to run solo, so
  // the gate can't observe it from Run).
  void RecordSoloEscape();

  // Adds fact_rows × (batch_size − 1) after a batch executed: the rows every
  // member other than the one that scanned did NOT read.
  void RecordScanRowsSaved(uint64_t rows);

  // One-line status for SHOW.
  std::string Describe() const;

  const MqoGateConfig& config() const { return config_; }
  uint64_t batches() const { return batches_.load(); }
  uint64_t queries_batched() const { return queries_batched_.load(); }
  uint64_t solo_escapes() const { return solo_escapes_.load(); }
  uint64_t scan_rows_saved() const { return scan_rows_saved_.load(); }

 private:
  struct Batch {
    std::vector<Member*> members;
    bool open = true;       // accepting joiners
    bool finished = false;  // `scan` published
    std::shared_ptr<const MqoBatchScan> scan;
    std::condition_variable cv;
  };

  const MqoGateConfig config_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Batch>> open_;
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> queries_batched_{0};
  std::atomic<uint64_t> solo_escapes_{0};
  std::atomic<uint64_t> scan_rows_saved_{0};
};

}  // namespace pctagg

#endif  // PCTAGG_SERVER_MQO_GATE_H_
