#ifndef PCTAGG_CORE_ADVISOR_H_
#define PCTAGG_CORE_ADVISOR_H_

#include "common/result.h"
#include "core/horizontal_planner.h"
#include "core/table_stats.h"
#include "core/vpct_planner.h"
#include "sql/analyzer.h"

namespace pctagg {

// Picks evaluation strategies following the experimental recommendations of
// Sections 4.1 (Vpct, Hpct) of the SIGMOD paper and Section 4.2 of the DMKD
// paper. The advisor looks at simple table statistics (row count, estimated
// BY-column cardinalities) — the same signals the papers reason about. Every
// entry point reads them from the table's PlannerStats (core/table_stats.h),
// which PctDatabase keeps current with the table, so advising samples no
// rows.
class StrategyAdvisor {
 public:
  // A BY column is "low selectivity" if its estimated cardinality is at most
  // this many distinct values (dweek=7 and monthNo=12 qualify; dept=100,
  // store=100 and age=100 do not).
  static constexpr size_t kLowSelectivityThreshold = 32;

  // Minimum fact cardinality before the fused pipelines are considered: the
  // per-statement overhead the fusion saves is fixed, so on small tables the
  // choice is noise and the well-exercised materialized plans stay default.
  static constexpr size_t kFusedMinRows = 65536;

  // Vpct: at dop 1 the paper's best strategy is unconditional — matching
  // subkey indexes, Fj from the partial aggregate Fk, INSERT over UPDATE.
  // At dop > 1 the choice comes from the cost model with scan terms divided
  // by dop (parallel scans cheapen the rescans the paper's heuristics were
  // calibrated against); on estimation failure the paper default stands.
  VpctStrategy AdviseVpct(const PlannerStats& fact,
                          const AnalyzedQuery& query, size_t dop = 1) const;

  // Hpct/Hagg: CASE always beats SPJ; direct from F when there are at most
  // two BY columns, all of low selectivity; otherwise go through FV. At
  // dop > 1 defers to AdviseHorizontalByCost with dop-scaled scan costs.
  HorizontalStrategy AdviseHorizontal(const PlannerStats& fact,
                                      const AnalyzedQuery& query,
                                      size_t dop = 1) const;

  // Whether the fused push-based pipeline (core/pipeline_plan.h) should
  // replace the materialized plan for this query. Callers check the shape
  // gates (VpctPipelineSupported / HorizontalPipelineSupported) first; these
  // only compare costs: fused runs when the fact table is at least
  // kFusedMinRows and the model prices the pipeline below the best
  // materialized strategy at this dop. False on estimation failure.
  bool AdviseVpctFused(const PlannerStats& fact, const AnalyzedQuery& query,
                       size_t dop = 1) const;
  bool AdviseHorizontalFused(const PlannerStats& fact,
                             const AnalyzedQuery& query, size_t dop = 1) const;

  // Grouping-set lattices (core/lattice_plan.h): true when the shared-scan
  // rollup should beat recomputing every level from the fact table. Shared
  // is the safe default — it only loses when the finest level is nearly as
  // large as the fact table (rollups then rescan ~n rows while writing far
  // fewer useful partials) — so estimation failure returns true.
  bool AdviseLatticeShared(const PlannerStats& fact,
                           const AnalyzedQuery& query, size_t dop = 1) const;

  // Cost-model-driven variant (paper future work: characterize strategies
  // with cost models): estimates FactStats for the first horizontal term
  // and picks the minimum-cost strategy. Falls back to AdviseHorizontal
  // when statistics cannot be estimated.
  HorizontalStrategy AdviseHorizontalByCost(const PlannerStats& fact,
                                            const AnalyzedQuery& query,
                                            size_t dop = 1) const;
};

}  // namespace pctagg

#endif  // PCTAGG_CORE_ADVISOR_H_
