#ifndef PCTAGG_CORE_SELECT_PLAN_H_
#define PCTAGG_CORE_SELECT_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "core/mqo_plan.h"
#include "core/partial_plan.h"
#include "core/plan.h"
#include "obs/trace.h"

namespace pctagg {

// How one SELECT is evaluated, decided once: PctDatabase::Query runs it,
// plain EXPLAIN prints it and EXPLAIN ANALYZE copies its header into the
// trace, so the three cannot disagree.
struct SelectPlan {
  enum class Evaluator {
    kVpctScript,        // the paper's Vpct strategies (core/vpct_planner.h)
    kHorizontalScript,  // the paper's Hpct/Hagg strategies
    kOlapScript,        // the OLAP window-function baseline of a Vpct query
    kWindowScript,      // a query with OVER (...) terms
    kPartial,           // finest-level partials, rollups, assembly
    kProjection,        // a projection, evaluated directly
  };
  Evaluator evaluator = Evaluator::kPartial;
  VpctStrategy vpct;              // kVpctScript
  HorizontalStrategy horizontal;  // kHorizontalScript
  std::optional<PartialPlan> partial;  // kPartial
  obs::PlanHeader header;  // what EXPLAIN prints and the trace starts with

  bool script() const {
    return evaluator != Evaluator::kPartial &&
           evaluator != Evaluator::kProjection;
  }
};

// Decides how `query` runs. A forced Vpct or horizontal strategy, or the
// OLAP baseline, runs that script. Otherwise a Vpct or Hpct/Hagg query takes
// the partial path when PartialPlanSupported accepts it, the table has
// StrategyAdvisor::kFusedMinRows rows or more and the cost model prices it
// below the advisor's materialized pick, which runs if not. Plain aggregates
// and grouping sets take the partial path, a window query runs its script
// and a projection is evaluated directly. `partial_forced` (QueryPartial)
// takes the partial path regardless. One EstimateStats call prices every
// candidate at `dop`; no script is built here.
//
// A table sharded over `shards` workers (0 = a local table) takes the
// partial path whatever `options` force, priced as the fetch from the shards
// next to the single-node fused scan it replaces, from `stats` resolved at
// SHARD time; a query without a partial plan gets DistributedError.
//
// A published MQO `batch` the query was a member of adds its leader's
// candidates. With its union table, the partial path is priced as a rollup
// of the union rows, with no kFusedMinRows floor: the batch paid the scan.
Result<SelectPlan> PlanSelect(const AnalyzedQuery& query,
                              const PlannerStats& stats,
                              const QueryOptions& options, size_t dop,
                              bool partial_forced = false, size_t shards = 0,
                              const MqoBatchScan* batch = nullptr);

// The generated script of a plan whose script() is true.
Result<Plan> BuildScript(const AnalyzedQuery& query, const SelectPlan& plan);

// Plain EXPLAIN's text: the header as SQL comments, then one "label:
// detail" line per step, as EXPLAIN ANALYZE prints the same nodes, then
// `script` (a generated plan's SQL).
std::string RenderExplain(const obs::PlanHeader& header,
                          const std::vector<PlanStep>& steps,
                          const std::string& script = "");

}  // namespace pctagg

#endif  // PCTAGG_CORE_SELECT_PLAN_H_
