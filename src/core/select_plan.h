#ifndef PCTAGG_CORE_SELECT_PLAN_H_
#define PCTAGG_CORE_SELECT_PLAN_H_

#include <string>

#include "common/result.h"
#include "core/database.h"
#include "core/mqo_plan.h"
#include "core/partial_plan.h"
#include "core/plan.h"
#include "obs/trace.h"

namespace pctagg {

// One SELECT, planned and lowered once into the steps that run it: the
// paper's generated statements, the partial path's steps, or a projection's
// one `select` step. PctDatabase::Query executes `steps` (Plan::Execute opens
// one trace node per step), plain EXPLAIN prints them, and EXPLAIN ANALYZE
// copies the header into the trace. So the three cannot disagree.
struct SelectPlan {
  obs::PlanHeader header;  // what EXPLAIN prints and the trace starts with
  Plan steps;

  // Plain EXPLAIN's text: the header as SQL comments, then one entry per
  // step (Plan::ToSql).
  std::string Explain() const {
    return header.RenderHeader("-- ") + steps.ToSql();
  }
};

// Decides how `query` (whose text is `sql`) runs and lowers it. A forced
// Vpct or horizontal strategy, or the OLAP baseline of a Vpct query, runs
// that script. Otherwise a Vpct or Hpct/Hagg query takes the partial path
// when PartialPlanSupported accepts it, the table has
// StrategyAdvisor::kFusedMinRows rows or more and the cost model prices it
// below the advisor's materialized pick, which runs if not. Plain aggregates
// and grouping sets take the partial path, a window query runs its script
// and a projection is evaluated directly. `partial_forced` (QueryPartial)
// takes the partial path regardless. One EstimateStats call prices every
// candidate at `dop`, and every step runs at it.
//
// A table sharded over `shards` (null = a local table) takes the partial
// path whatever `options` force, priced as the fetch from the shards next
// to the single-node fused scan it replaces, from `stats` resolved at SHARD
// time; a query without a partial plan gets DistributedError.
//
// A published MQO `batch` the query was a member of adds its leader's
// candidates. With its union table, the partial path is priced as a rollup
// of the union rows, with no kFusedMinRows floor: the batch paid the scan,
// and the partial path reads that union table.
//
// The steps refer to `query`, which must outlive the plan.
Result<SelectPlan> PlanSelect(const AnalyzedQuery& query,
                              const std::string& sql,
                              const PlannerStats& stats,
                              const QueryOptions& options, size_t dop,
                              bool partial_forced = false,
                              ShardFetch* shards = nullptr,
                              const MqoBatchScan* batch = nullptr);

}  // namespace pctagg

#endif  // PCTAGG_CORE_SELECT_PLAN_H_
