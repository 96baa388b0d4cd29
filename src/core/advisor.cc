#include "core/advisor.h"

#include <algorithm>

#include "core/cost_model.h"

namespace pctagg {

VpctStrategy StrategyAdvisor::AdviseVpct(const PlannerStats& fact,
                                         const AnalyzedQuery& query,
                                         size_t dop) const {
  if (dop > 1) {
    // Parallel scans change the trade-offs Table 4 was measured under, so
    // rank the strategy space with the dop-aware cost model instead.
    const AnalyzedTerm* term = nullptr;
    for (const AnalyzedTerm& t : query.terms) {
      if (t.has_by) {
        term = &t;
        break;
      }
    }
    if (term != nullptr) {
      CostModel model;
      Result<FactStats> stats = model.EstimateStats(
          fact, query.group_by, term->by_columns, /*by=*/{});
      if (stats.ok()) {
        FactStats s = stats.value();
        s.dop = static_cast<double>(dop);
        return model.PickVpct(s);
      }
    }
  }
  // Table 4's winner in every configuration: create matching indexes on the
  // common subkey, compute Fj from Fk (sum() is distributive) and produce FV
  // with INSERT rather than UPDATE.
  return VpctStrategy{};
}

HorizontalStrategy StrategyAdvisor::AdviseHorizontal(
    const PlannerStats& fact, const AnalyzedQuery& query, size_t dop) const {
  if (dop > 1) return AdviseHorizontalByCost(fact, query, dop);
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

HorizontalStrategy StrategyAdvisor::AdviseHorizontalByCost(
    const PlannerStats& fact, const AnalyzedQuery& query, size_t dop) const {
  const AnalyzedTerm* term = nullptr;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.has_by) {
      term = &t;
      break;
    }
  }
  if (term == nullptr) return AdviseHorizontal(fact, query);
  CostModel model;
  std::vector<std::string> full_group = query.group_by;
  full_group.insert(full_group.end(), term->by_columns.begin(),
                    term->by_columns.end());
  Result<FactStats> stats =
      model.EstimateStats(fact, full_group, query.group_by, term->by_columns);
  if (!stats.ok()) return AdviseHorizontal(fact, query);
  FactStats s = stats.value();
  s.dop = static_cast<double>(dop < 1 ? 1 : dop);
  HorizontalStrategy strategy = model.PickHorizontal(s);
  // DISTINCT terms still require a direct strategy.
  if (term->distinct) strategy.method = HorizontalMethod::kCaseDirect;
  return strategy;
}

bool StrategyAdvisor::AdviseVpctFused(const PlannerStats& fact,
                                      const AnalyzedQuery& query,
                                      size_t dop) const {
  if (fact.rows() < kFusedMinRows) return false;
  const AnalyzedTerm* term = nullptr;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.has_by) {
      term = &t;
      break;
    }
  }
  CostModel model;
  Result<FactStats> stats = model.EstimateStats(
      fact, query.group_by,
      term != nullptr ? term->by_columns : std::vector<std::string>{},
      /*by=*/{});
  if (!stats.ok()) return false;
  FactStats s = stats.value();
  s.dop = static_cast<double>(dop < 1 ? 1 : dop);
  const VpctStrategy materialized = AdviseVpct(fact, query, dop);
  return model.FusedVpctCost(s) < model.VpctCost(s, materialized);
}

bool StrategyAdvisor::AdviseHorizontalFused(const PlannerStats& fact,
                                            const AnalyzedQuery& query,
                                            size_t dop) const {
  if (fact.rows() < kFusedMinRows) return false;
  const AnalyzedTerm* term = nullptr;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.has_by) {
      term = &t;
      break;
    }
  }
  if (term == nullptr) return false;
  CostModel model;
  std::vector<std::string> full_group = query.group_by;
  full_group.insert(full_group.end(), term->by_columns.begin(),
                    term->by_columns.end());
  Result<FactStats> stats =
      model.EstimateStats(fact, full_group, query.group_by, term->by_columns);
  if (!stats.ok()) return false;
  FactStats s = stats.value();
  s.dop = static_cast<double>(dop < 1 ? 1 : dop);
  const HorizontalStrategy materialized = AdviseHorizontal(fact, query, dop);
  return model.FusedHorizontalCost(s) < model.HorizontalCost(s, materialized);
}

}  // namespace pctagg
