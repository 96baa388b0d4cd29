#include "core/select_plan.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <tuple>

#include "common/string_util.h"
#include "core/advisor.h"
#include "core/cost_model.h"
#include "core/olap_planner.h"
#include "engine/table_ops.h"

namespace pctagg {

namespace {

// The partial path's strategy, named after the source of its partials: the
// planned fused scan or shards, renamed at run time by the source step the
// MQO batch or the cache answers.
const char kPartialFromScan[] = "partial from fused scan";

// Human name of a Vpct configuration, mirroring the Table 4 knobs.
std::string VpctStrategyName(const VpctStrategy& s) {
  std::string name = s.fj_from_fk ? "Fj-from-Fk" : "Fj-from-F";
  name += s.insert_result ? "+INSERT" : "+UPDATE";
  if (!s.matching_indexes) name += "+mismatched-indexes";
  if (s.fj_from_fk && s.lattice_reuse) name += "+lattice";
  return name;
}

// Vpct and Hpct/Hagg: the paper's strategies (Tables 4 and 5), the OLAP
// baseline for Vpct and, unless a plan was forced, the partial path — a
// rollup of `batch_rows` union rows when an MQO batch serves it (negative:
// no batch). True when the partial path runs; otherwise `plan->steps` holds
// the picked script.
Result<bool> PlanPercentage(const AnalyzedQuery& query,
                            const PlannerStats& fact,
                            const QueryOptions& options, size_t dop,
                            bool partial_forced, bool partial_ok,
                            double batch_rows, SelectPlan* plan) {
  const bool vpct = query.query_class == QueryClass::kVpct;
  const CostModel model;
  const AnalyzedTerm* term = FirstByTerm(query);
  const Result<FactStats> estimated = EstimateQueryStats(fact, query);
  FactStats s = estimated.ok() ? estimated.value() : FactStats{};
  s.dop = static_cast<double>(dop);
  const FactStats* advised = estimated.ok() && term != nullptr ? &s : nullptr;

  const bool olap = vpct && !partial_forced && options.olap_baseline;
  const bool forced =
      !partial_forced &&
      (olap || (vpct ? options.vpct_strategy.has_value()
                     : options.horizontal_strategy.has_value()));
  StrategyAdvisor advisor;
  VpctStrategy v;
  HorizontalStrategy h;
  if (vpct) {
    v = olap     ? VpctStrategy{}
        : forced ? *options.vpct_strategy
                 : advisor.AdviseVpct(advised, dop);
  } else {
    h = forced ? *options.horizontal_strategy
               : advisor.AdviseHorizontal(fact, query, advised, dop);
  }
  FactStats from = s;
  if (batch_rows >= 0) from.rows = batch_rows;
  const double partial_cost =
      vpct ? model.FusedVpctCost(from) : model.FusedHorizontalCost(from);
  const double pick_cost =
      vpct ? model.VpctCost(s, v) : model.HorizontalCost(s, h);
  const bool partial =
      partial_forced ||
      (!forced && partial_ok && (vpct || term != nullptr) &&
       (batch_rows >= 0 || fact.rows() >= StrategyAdvisor::kFusedMinRows) &&
       estimated.ok() && partial_cost < pick_cost);

  if (!partial) {
    PCTAGG_ASSIGN_OR_RETURN(plan->steps,
                            olap   ? PlanOlapPercentageQuery(query)
                            : vpct ? PlanVpctQuery(query, v)
                                   : PlanHorizontalQuery(query, h));
  }
  plan->header.strategy =
      partial ? kPartialFromScan
      : olap  ? "OLAP-window"
      : vpct  ? VpctStrategyName(v)
              : std::string(HorizontalMethodName(h.method)) +
                   (h.hash_dispatch ? "+hash-dispatch" : "+naive-case");
  plan->header.strategy_source =
      forced || partial_forced ? "forced" : "advisor";
  if (!estimated.ok()) return partial;

  if (vpct) {
    plan->header.predicted_group_rows = s.group_cardinality;
    for (const auto& [name, fj_from_fk, insert] :
         {std::tuple{"Fj-from-Fk+INSERT", true, true},
          std::tuple{"Fj-from-F+INSERT", false, true},
          std::tuple{"Fj-from-Fk+UPDATE", true, false}}) {
      VpctStrategy candidate = v;
      candidate.fj_from_fk = fj_from_fk;
      candidate.insert_result = insert;
      plan->header.predicted_costs.push_back(
          {name, model.VpctCost(s, candidate),
           !partial && !olap && v.fj_from_fk == fj_from_fk &&
               v.insert_result == insert});
    }
    plan->header.predicted_costs.push_back(
        {"OLAP-window", model.OlapCost(s), olap});
  } else {
    // The first level the plan materializes, so the actual read off the
    // trace compares like with like: direct methods aggregate straight to
    // D1..Dj; the from-FV methods and the partial path build D1..Dj ∪ BY.
    const bool from_fv = h.method == HorizontalMethod::kCaseFromFV ||
                         h.method == HorizontalMethod::kSpjFromFV;
    plan->header.predicted_group_rows =
        from_fv || partial ? s.group_cardinality : s.totals_cardinality;
    for (HorizontalMethod method :
         {HorizontalMethod::kCaseDirect, HorizontalMethod::kCaseFromFV,
          HorizontalMethod::kSpjDirect, HorizontalMethod::kSpjFromFV}) {
      HorizontalStrategy candidate = h;
      candidate.method = method;
      plan->header.predicted_costs.push_back(
          {HorizontalMethodName(method), model.HorizontalCost(s, candidate),
           !partial && method == h.method});
    }
  }
  // A forced strategy keeps the paper's candidates only.
  if (!forced) {
    plan->header.predicted_costs.push_back({"partial", partial_cost, partial});
  }
  return partial;
}

// A sharded table: the fetch from the shards next to the single-node fused
// scan it replaces, both priced from the statistics resolved at SHARD time
// (the stub has no rows left to describe).
void PlanSharded(const PlannerStats& fact, size_t dop, size_t shards,
                 const PartialPlan& partial, obs::PlanHeader* header) {
  header->strategy = "partial from shards";
  header->strategy_source = "topology";
  const CostModel model;
  FactStats s;
  s.rows = fact.rows();
  Result<FactStats> estimated =
      model.EstimateStats(fact, partial.finest_cols, {}, {});
  if (estimated.ok()) s = *estimated;
  header->predicted_costs.push_back(
      {StrFormat("distributed (%zu shards x dop %zu)", shards, dop),
       model.DistributedCost(
           s, static_cast<double>(shards), static_cast<double>(dop),
           static_cast<double>(partial.finest_cols.size() +
                               partial.partials.size())),
       true});
  s.dop = static_cast<double>(dop);
  header->predicted_costs.push_back(
      {StrFormat("single-node fused scan (dop %zu)", dop),
       model.FusedVpctCost(s), false});
  header->predicted_group_rows = s.group_cardinality;
}

// A projection, evaluated directly. A vertical aggregate gets here only
// when the partial path refused it: count(DISTINCT) without BY.
Status EvaluateSimple(const AnalyzedQuery& query, ExecContext* ctx) {
  if (query.query_class != QueryClass::kProjection) {
    return Status::InvalidArgument(
        "count(DISTINCT ...) is only supported with a BY clause");
  }
  PCTAGG_ASSIGN_OR_RETURN(const Table* base,
                          ctx->catalog->GetTable(query.table_name));
  Table filtered;
  const Table* input = base;
  if (query.where != nullptr) {
    PCTAGG_ASSIGN_OR_RETURN(filtered, Filter(*base, query.where));
    input = &filtered;
  }
  std::vector<ProjectSpec> specs;
  for (const AnalyzedTerm& t : query.terms) {
    specs.push_back({t.argument, t.output_name});
  }
  PCTAGG_ASSIGN_OR_RETURN(ctx->result, Project(*input, specs));
  return Status::OK();
}

}  // namespace

Result<SelectPlan> PlanSelect(const AnalyzedQuery& query,
                              const std::string& sql,
                              const PlannerStats& stats,
                              const QueryOptions& options, size_t dop,
                              bool partial_forced, ShardFetch* shards,
                              const MqoBatchScan* batch) {
  SelectPlan plan;
  plan.header.query_class = QueryClassName(query.query_class);
  plan.header.strategy = kPartialFromScan;
  plan.header.strategy_source = "n/a";
  dop = std::max<size_t>(1, dop);
  std::string why;
  const bool partial_ok = PartialPlanSupported(query, &why);
  std::optional<PartialPlan> partial;
  bool lower_partial = true;
  if (shards != nullptr) {
    if (!partial_ok) return DistributedError(query.table_name, why);
    PCTAGG_ASSIGN_OR_RETURN(partial, BuildPartialPlan(query));
    PlanSharded(stats, dop, shards->num_shards(), *partial, &plan.header);
  } else if (query.has_grouping_sets) {
    if (!partial_ok) return Status::InvalidArgument("grouping sets: " + why);
    // The one fused scan and every rollup, priced together.
    PCTAGG_ASSIGN_OR_RETURN(partial, BuildPartialPlan(query));
    Result<FactStats> s = CostModel().EstimateStats(stats, query.group_by,
                                                    /*totals_by=*/{}, {});
    if (s.ok()) {
      // LatticeSharedCost reads the finest level first.
      std::vector<double> rows = EstimateLevelRows(*partial, stats);
      std::sort(rows.begin(), rows.end(), std::greater<double>());
      s->dop = static_cast<double>(dop);
      plan.header.predicted_group_rows = rows.front();
      plan.header.predicted_costs.push_back(
          {"partial", CostModel().LatticeSharedCost(*s, rows), true});
    }
  } else if (query.query_class == QueryClass::kVpct ||
             query.query_class == QueryClass::kHorizontal) {
    const bool batched = batch != nullptr && batch->partials != nullptr;
    PCTAGG_ASSIGN_OR_RETURN(
        lower_partial,
        PlanPercentage(query, stats, options, dop, partial_forced, partial_ok,
                       batched
                           ? static_cast<double>(batch->partials->num_rows())
                           : -1.0,
                       &plan));
  } else if (query.query_class == QueryClass::kWindow) {
    plan.header.strategy = "OLAP-window";
    PCTAGG_ASSIGN_OR_RETURN(plan.steps, PlanWindowQuery(query));
    lower_partial = false;
  } else if (!partial_ok) {
    // A projection; a plain aggregate gets here only when the partial path
    // refused it, which EvaluateSimple reports.
    plan.header.strategy = "projection";
    plan.steps.AddStep("select", sql, [&query](ExecContext* ctx) {
      return EvaluateSimple(query, ctx);
    });
    lower_partial = false;
  }
  if (lower_partial) {
    if (!partial) {
      PCTAGG_ASSIGN_OR_RETURN(partial, BuildPartialPlan(query));
    }
    LowerPartialPlan(std::move(*partial),
                     {.shards = shards, .batch = batch, .finest = nullptr},
                     stats, dop, &plan.steps);
  }
  if (batch != nullptr) {
    plan.header.predicted_costs.insert(plan.header.predicted_costs.end(),
                                       batch->costs.begin(),
                                       batch->costs.end());
  }
  return plan;
}

}  // namespace pctagg
