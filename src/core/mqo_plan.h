#ifndef PCTAGG_CORE_MQO_PLAN_H_
#define PCTAGG_CORE_MQO_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/partial_plan.h"
#include "engine/aggregate.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "sql/analyzer.h"

namespace pctagg {

// --- Multi-query shared-scan batching (docs/DESIGN.md, MQO section) ----------
//
// N concurrently admitted queries over the same fact table usually differ
// only in their grouping/BY columns and aggregate arguments — the
// shared-subexpression structure of dashboard bursts. Every supported query
// is a PartialPlan (core/partial_plan.h), so a whole batch can be fed from
// ONE scan computing the deduplicated union of everyone's partials at the
// union finest level. Each member is then an ordinary query
// (PctDatabase::QueryPrepared) whose plan's `mqo-batch-rollup` step rolls
// that union table down to its own finest level — the cached-ancestor move,
// applied to a table that lives for one batch.
//
// Batch compatibility: same table and the same rendered WHERE clause (the
// union scan runs under one predicate, so predicates must match textually —
// mixed WHERE never batches). A query joins a batch iff PartialPlanSupported
// accepts it. Bit-identity with solo execution holds for the same reason the
// sharded path is bit-identical: rollups preserve first-seen group order and
// INT64 partials merge exactly (float sums carry the usual reassociation
// caveat, see docs/PARALLELISM.md).

// Batch-compatibility key: queries may batch together iff their keys are
// equal. Callers append their own execution-context fingerprint (dop, cache
// setting, ...) before using the key for admission.
std::string MqoCompatibilityKey(const AnalyzedQuery& query);

// The deduplicated union scan serving every member: one pass over the fact
// table at the union finest level computing the union of every member's
// partials (named __b1, __b2, ... in first-appearance order).
struct MqoBatchPlan {
  std::string table;                   // as analyzed (first member's casing)
  ExprPtr where;                       // shared predicate; may be null
  std::vector<std::string> scan_cols;  // union finest level
  std::vector<AggSpec> scan_partials;  // deduplicated union partials
  size_t partials_requested = 0;       // sum over members, before dedup
};

// Plans the batch: lowers each member to its PartialPlan and dedupes their
// partials into one union scan recipe. Fails when the members are not
// mutually compatible (different tables or WHERE clauses) or any member is
// unsupported — callers gate on MqoCompatibilityKey and PartialPlanSupported
// first, so a failure here means the gate was bypassed.
Result<MqoBatchPlan> PlanMqoBatch(
    const std::vector<const AnalyzedQuery*>& queries);

// What a batch leader publishes to every member, once: the plan, the shared
// union-level partials, and what a traced member shows.
struct MqoBatchScan {
  MqoBatchPlan plan;
  // The union table, grouped by plan.scan_cols with one column per
  // plan.scan_partials; null when the batch was declined or its scan
  // failed, so every member answers solo.
  std::shared_ptr<const Table> partials;
  // The batch and solo candidates as the leader priced them; empty when
  // nothing was priced.
  std::vector<obs::QueryTrace::PredictedCost> costs;
  // What each traced member's `mqo-batch` step copies into its own node:
  // what the batch shared, timed by the scan it ran once, with the traced
  // scan (its morsels and workers=) as children.
  obs::TraceNode node{"mqo-batch", "", {}, {}};
};

// Moves the leader's traced scan under `batch->node`, which takes the
// scan's wall and CPU time and `detail`.
void AttachMqoScanTrace(MqoBatchScan* batch, std::string detail,
                        obs::QueryTrace* scan_trace);

}  // namespace pctagg

#endif  // PCTAGG_CORE_MQO_PLAN_H_
