#include "core/advisor.h"

#include <algorithm>

namespace pctagg {

const AnalyzedTerm* FirstByTerm(const AnalyzedQuery& query) {
  for (const AnalyzedTerm& t : query.terms) {
    if (t.has_by) return &t;
  }
  return nullptr;
}

Result<FactStats> EstimateQueryStats(const PlannerStats& fact,
                                     const AnalyzedQuery& query) {
  const AnalyzedTerm* term = FirstByTerm(query);
  const std::vector<std::string> by =
      term != nullptr ? term->by_columns : std::vector<std::string>{};
  if (query.query_class == QueryClass::kVpct) {
    return CostModel().EstimateStats(fact, query.group_by, by, /*by=*/{});
  }
  if (term == nullptr) return Status::NotFound("no BY term to price");
  std::vector<std::string> full_group = query.group_by;
  full_group.insert(full_group.end(), by.begin(), by.end());
  return CostModel().EstimateStats(fact, full_group, query.group_by, by);
}

VpctStrategy StrategyAdvisor::AdviseVpct(const PlannerStats& fact,
                                         const AnalyzedQuery& query,
                                         size_t dop) const {
  Result<FactStats> stats = EstimateQueryStats(fact, query);
  return AdviseVpct(
      stats.ok() && FirstByTerm(query) != nullptr ? &stats.value() : nullptr,
      dop);
}

VpctStrategy StrategyAdvisor::AdviseVpct(const FactStats* stats,
                                         size_t dop) const {
  if (dop > 1 && stats != nullptr) {
    // Parallel scans change the trade-offs Table 4 was measured under, so
    // rank the strategy space with the dop-aware cost model instead.
    FactStats s = *stats;
    s.dop = static_cast<double>(dop);
    return CostModel().PickVpct(s);
  }
  // Table 4's winner in every configuration: create matching indexes on the
  // common subkey, compute Fj from Fk (sum() is distributive) and produce FV
  // with INSERT rather than UPDATE.
  return VpctStrategy{};
}

HorizontalStrategy StrategyAdvisor::AdviseHorizontal(
    const PlannerStats& fact, const AnalyzedQuery& query, size_t dop) const {
  Result<FactStats> stats = EstimateQueryStats(fact, query);
  return AdviseHorizontal(fact, query, stats.ok() ? &stats.value() : nullptr,
                          dop);
}

HorizontalStrategy StrategyAdvisor::AdviseHorizontal(
    const PlannerStats& fact, const AnalyzedQuery& query,
    const FactStats* stats, size_t dop) const {
  if (dop > 1 && stats != nullptr) {
    // Cost-model-driven choice (paper future work: characterize strategies
    // with cost models) with dop-scaled scans.
    FactStats s = *stats;
    s.dop = static_cast<double>(dop);
    HorizontalStrategy strategy = CostModel().PickHorizontal(s);
    // DISTINCT terms still require a direct strategy.
    const AnalyzedTerm* term = FirstByTerm(query);
    if (term != nullptr && term->distinct) {
      strategy.method = HorizontalMethod::kCaseDirect;
    }
    return strategy;
  }
  HorizontalStrategy strategy;
  strategy.method = HorizontalMethod::kCaseDirect;  // CASE always beats SPJ

  // Gather the union of BY columns across horizontal terms.
  size_t max_by = 0;
  bool all_low_selectivity = true;
  for (const AnalyzedTerm& t : query.terms) {
    if (!t.has_by) continue;
    max_by = std::max(max_by, t.by_columns.size());
    for (const std::string& b : t.by_columns) {
      Result<double> card = fact.Cardinality(b);
      if (!card.ok() || card.value() > kLowSelectivityThreshold) {
        all_low_selectivity = false;
      }
    }
  }
  // The paper's recommendation: direct from F for <=2 low-selectivity BY
  // columns, otherwise compute FV first and transpose the (much smaller) FV.
  if (max_by > 2 || !all_low_selectivity) {
    strategy.method = HorizontalMethod::kCaseFromFV;
  }
  // count(DISTINCT) has no indirect form (avg goes through FV via its
  // algebraic sum/count decomposition); fall back to direct.
  for (const AnalyzedTerm& t : query.terms) {
    if (t.has_by && t.distinct) {
      strategy.method = HorizontalMethod::kCaseDirect;
      break;
    }
  }
  return strategy;
}

}  // namespace pctagg
