#ifndef PCTAGG_CORE_ADVISOR_H_
#define PCTAGG_CORE_ADVISOR_H_

#include "common/result.h"
#include "core/cost_model.h"
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
// rows. Whether the partial path replaces the advised plan is decided by
// PlanSelect (core/select_plan.h).
class StrategyAdvisor {
 public:
  // A BY column is "low selectivity" if its estimated cardinality is at most
  // this many distinct values (dweek=7 and monthNo=12 qualify; dept=100,
  // store=100 and age=100 do not).
  static constexpr size_t kLowSelectivityThreshold = 32;

  // Minimum fact cardinality before the partial path competes with the
  // materialized plans: the per-statement overhead it saves is fixed, so on
  // small tables the choice is noise and the well-exercised materialized
  // plans stay default.
  static constexpr size_t kFusedMinRows = 65536;

  // Vpct: at dop 1 the paper's best strategy is unconditional — matching
  // subkey indexes, Fj from the partial aggregate Fk, INSERT over UPDATE.
  // At dop > 1 the choice comes from the cost model with scan terms divided
  // by dop (parallel scans cheapen the rescans the paper's heuristics were
  // calibrated against); on estimation failure the paper default stands.
  VpctStrategy AdviseVpct(const PlannerStats& fact,
                          const AnalyzedQuery& query, size_t dop = 1) const;
  // The same choice from `stats`, the query's EstimateQueryStats (null
  // without a BY term or when estimation failed), so a planner that already
  // estimated the query does not estimate it again.
  VpctStrategy AdviseVpct(const FactStats* stats, size_t dop) const;

  // Hpct/Hagg: CASE always beats SPJ; direct from F when there are at most
  // two BY columns, all of low selectivity; otherwise go through FV. At
  // dop > 1 the cost model picks with dop-scaled scan costs, falling back to
  // those rules when statistics cannot be estimated.
  HorizontalStrategy AdviseHorizontal(const PlannerStats& fact,
                                      const AnalyzedQuery& query,
                                      size_t dop = 1) const;
  // The same choice from `stats`, the query's EstimateQueryStats (null when
  // estimation failed).
  HorizontalStrategy AdviseHorizontal(const PlannerStats& fact,
                                      const AnalyzedQuery& query,
                                      const FactStats* stats,
                                      size_t dop) const;
};

// The first term with a BY list: the one the advisor's estimates key off.
// Null when no term has one.
const AnalyzedTerm* FirstByTerm(const AnalyzedQuery& query);

// The statistics a Vpct or horizontal query is priced with: a Vpct query's
// |Fk| at GROUP BY, a horizontal query's |FV| at GROUP BY ∪ BY of its first
// BY term with totals at GROUP BY (NotFound without a BY term).
Result<FactStats> EstimateQueryStats(const PlannerStats& fact,
                                     const AnalyzedQuery& query);

}  // namespace pctagg

#endif  // PCTAGG_CORE_ADVISOR_H_
