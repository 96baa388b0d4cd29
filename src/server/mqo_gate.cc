#include "server/mqo_gate.h"

#include <chrono>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace pctagg {

namespace {

// Registration is hoisted into function-local statics (GetCounter locks).
obs::Counter& BatchesCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_mqo_batches_total",
      "Batches executed by the multi-query gate (any size)");
  return c;
}
obs::Counter& QueriesBatchedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_mqo_queries_batched_total",
      "Queries served as members of a shared-scan batch of >= 2");
  return c;
}
obs::Counter& SoloEscapeCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_mqo_solo_escapes_total",
      "Queries that skipped the batching gate to protect their deadline");
  return c;
}
obs::Counter& ScanRowsSavedCounter() {
  static obs::Counter& c = obs::GlobalMetrics().GetCounter(
      "pctagg_mqo_scan_rows_saved_total",
      "Fact rows NOT rescanned because a batch shared one scan");
  return c;
}
obs::Histogram& WindowHist() {
  static obs::Histogram& h = obs::GlobalMetrics().GetHistogram(
      "pctagg_mqo_batch_window_ms",
      "Collection window actually waited by batch leaders, milliseconds");
  return h;
}

}  // namespace

std::shared_ptr<const MqoBatchScan> MqoGate::Run(
    const std::string& key, Member& member, const BatchFn& plan_and_scan) {
  std::shared_ptr<Batch> batch;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = open_.find(key);
    if (it != open_.end() && it->second->open) {
      // Follower: park on the open batch until the leader publishes its scan.
      batch = it->second;
      batch->members.push_back(&member);
      if (batch->members.size() >= config_.max_batch) {
        batch->cv.notify_all();  // wake the leader to close early
      }
      batch->cv.wait(lock, [&batch] { return batch->finished; });
      return batch->scan;
    }
    // Leader: open a batch, collect followers for one window (closing early
    // when the batch fills), then take it off the open map so later arrivals
    // start a fresh batch while this one scans.
    batch = std::make_shared<Batch>();
    batch->members.push_back(&member);
    open_[key] = batch;
    Stopwatch window;
    batch->cv.wait_for(
        lock, std::chrono::milliseconds(config_.window_ms),
        [&batch, this] { return batch->members.size() >= config_.max_batch; });
    batch->open = false;
    auto cur = open_.find(key);
    if (cur != open_.end() && cur->second == batch) open_.erase(cur);
    WindowHist().Observe(static_cast<uint64_t>(window.ElapsedMillis()));
  }

  // Plan and scan outside the gate lock; the members vector is frozen (open
  // was cleared under the lock) and no member leaves Run before the scan is
  // published, so the leader's pointers stay valid.
  batches_.fetch_add(1);
  BatchesCounter().Add();
  std::shared_ptr<const MqoBatchScan> scan = plan_and_scan(batch->members);
  // Only a published scan serves its members; a declined or failed batch
  // answers solo.
  if (batch->members.size() >= 2 && scan != nullptr &&
      scan->partials != nullptr) {
    queries_batched_.fetch_add(batch->members.size());
    QueriesBatchedCounter().Add(batch->members.size());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    batch->scan = scan;
    batch->finished = true;
  }
  batch->cv.notify_all();
  return scan;
}

void MqoGate::RecordSoloEscape() {
  solo_escapes_.fetch_add(1);
  SoloEscapeCounter().Add();
}

void MqoGate::RecordScanRowsSaved(uint64_t rows) {
  if (rows == 0) return;
  scan_rows_saved_.fetch_add(rows);
  ScanRowsSavedCounter().Add(rows);
}

std::string MqoGate::Describe() const {
  return StrFormat(
      "window_ms=%llu max_batch=%zu batches=%llu queries_batched=%llu "
      "solo_escapes=%llu scan_rows_saved=%llu",
      static_cast<unsigned long long>(config_.window_ms), config_.max_batch,
      static_cast<unsigned long long>(batches_.load()),
      static_cast<unsigned long long>(queries_batched_.load()),
      static_cast<unsigned long long>(solo_escapes_.load()),
      static_cast<unsigned long long>(scan_rows_saved_.load()));
}

}  // namespace pctagg
