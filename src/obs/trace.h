#ifndef PCTAGG_OBS_TRACE_H_
#define PCTAGG_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pctagg {
namespace obs {

// Per-operator execution statistics, collected into a per-query QueryTrace
// tree. This is what EXPLAIN ANALYZE renders and what `SET trace on` ships
// back over the wire next to the result — the visibility layer that makes
// the CostModel/StrategyAdvisor auditable (which physical strategy actually
// ran, where the time went, how loaded the hash tables were).
//
// Collection is pull-free and thread-local: Plan::Execute opens one node per
// plan step, engine kernels running on that thread attach operator
// child nodes through CurrentOp()/OpScope, and morsel workers stay
// uninstrumented (the dispatching thread records the merged totals after
// RunMorsels returns). When no trace is active, CurrentOp() is null and
// every recording site is a single thread-local load + branch.
struct OpStats {
  uint64_t rows_in = 0;    // input rows scanned / probed
  uint64_t rows_out = 0;   // result rows / matches emitted
  uint64_t morsels = 0;    // morsel count of the parallel dispatch (0=serial)
  uint64_t workers = 0;    // workers that ran >= 1 morsel (<= planned)
  uint64_t hash_groups = 0;   // entries in the operator's hash table (peak)
  uint64_t hash_slots = 0;    // open-addressing slots backing them (peak)
  uint64_t partials_merged = 0;  // thread-local partial tables merged
  double wall_ms = 0;
  double cpu_ms = 0;       // dispatching thread's CPU time only
  bool cache_hit = false;  // summary cache answered; no scan happened

  double hash_load() const {
    return hash_slots == 0
               ? 0.0
               : static_cast<double>(hash_groups) /
                     static_cast<double>(hash_slots);
  }
};

// One node of the executed-plan tree: a plan step, or one engine operator
// invoked while running it.
struct TraceNode {
  std::string label;   // "statement", "aggregate", "join-lookup", ...
  std::string detail;  // the generated SQL / operator annotation
  OpStats stats;
  std::vector<std::unique_ptr<TraceNode>> children;

  TraceNode* AddChild(std::string child_label, std::string child_detail = "");
  // Appends a deep copy of `node` (stats and subtree) as a child.
  TraceNode* AddCopy(const TraceNode& node);
};

// What a plan says about itself before it runs: the query class, the
// strategy that runs and why, the cost model's candidates and predicted
// group rows. The planner decides it (PlanSelect, core/select_plan.h), plain
// EXPLAIN prints it and every QueryTrace starts with it.
struct PlanHeader {
  std::string query_class;      // "vertical-percentage", "horizontal", ...
  std::string strategy;         // human name of the strategy that runs
  std::string strategy_source;  // "advisor" | "forced" | "n/a" | ...
  // Cost-model predictions per candidate strategy, in evaluation order;
  // `chosen` marks the one that ran. Costs are abstract row-operation units.
  struct PredictedCost {
    std::string name;
    double cost = 0;
    bool chosen = false;
  };
  std::vector<PredictedCost> predicted_costs;
  double predicted_group_rows = -1;  // cost model's |Fk| / |FV| estimate
  double actual_group_rows = -1;     // rows the finest aggregate produced

  // One line per field that is set, each after `prefix`.
  std::string RenderHeader(const std::string& prefix = "") const;
};

// The trace of one query: the executed plan under the header of the plan
// that ran, whose predictions it audits against the actuals.
class QueryTrace : public PlanHeader {
 public:
  TraceNode& root() { return root_; }
  const TraceNode& root() const { return root_; }

  double total_ms = 0;

  // Sum of rows_in over all operator nodes: the "actual row operations" the
  // cost model's abstract units predict.
  uint64_t ActualRowOps() const;

  // Human-readable multi-line rendering (EXPLAIN ANALYZE output).
  std::string Render() const;

 private:
  TraceNode root_{"query", "", {}, {}};
};

// The operator node engine kernels should attach children to; null when no
// trace is being collected on this thread.
TraceNode* CurrentOp();

// RAII scope that makes `node` the thread's current trace node and, on
// destruction, records wall + thread-CPU time into it. Used by Plan::Execute
// around each statement and by OpScope below.
class ScopedTraceNode {
 public:
  explicit ScopedTraceNode(TraceNode* node);  // node may be null (no-op)
  ~ScopedTraceNode();

  ScopedTraceNode(const ScopedTraceNode&) = delete;
  ScopedTraceNode& operator=(const ScopedTraceNode&) = delete;

 private:
  TraceNode* node_;
  TraceNode* previous_;
  double wall_start_ms_ = 0;
  double cpu_start_ms_ = 0;
};

// Kernel-side recording scope: attaches a child operator node to the
// thread's current node (if any) and exposes cheap setters. All methods are
// no-ops when tracing is off, so kernels call them unconditionally.
class OpScope {
 public:
  explicit OpScope(const char* label);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  bool active() const { return node_ != nullptr; }

  void SetRows(uint64_t rows_in, uint64_t rows_out) {
    if (node_ == nullptr) return;
    node_->stats.rows_in = rows_in;
    node_->stats.rows_out = rows_out;
  }
  void SetMorsels(uint64_t morsels, uint64_t workers) {
    if (node_ == nullptr) return;
    node_->stats.morsels = morsels;
    node_->stats.workers = workers;
  }
  void SetHashTable(uint64_t groups, uint64_t slots) {
    if (node_ == nullptr) return;
    node_->stats.hash_groups = groups;
    node_->stats.hash_slots = slots;
  }
  void SetPartialsMerged(uint64_t n) {
    if (node_ == nullptr) return;
    node_->stats.partials_merged = n;
  }
  void SetDetail(const std::string& detail) {
    if (node_ == nullptr) return;
    node_->detail = detail;
  }

 private:
  TraceNode* node_ = nullptr;
  std::unique_ptr<ScopedTraceNode> scope_;
};

// Marks the thread's current node as answered by the summary cache.
void MarkCacheHit();

// Thread-CPU clock in milliseconds (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuMs();

namespace internal {
// Installs `node` as the thread's current trace node; returns the previous
// one. Exposed for ScopedTraceNode and tests.
TraceNode* SwapCurrentOp(TraceNode* node);
}  // namespace internal

}  // namespace obs
}  // namespace pctagg

#endif  // PCTAGG_OBS_TRACE_H_
