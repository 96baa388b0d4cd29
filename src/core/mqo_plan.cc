#include "core/mqo_plan.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace pctagg {

std::string MqoCompatibilityKey(const AnalyzedQuery& query) {
  // The union scan runs under one predicate, so WHERE compatibility is
  // textual equality of the rendered expression (normalized by the parser);
  // semantically equivalent but differently spelled predicates simply land
  // in different batches — correct, just less sharing.
  std::string key = ToLower(query.table_name) + "|";
  if (query.where != nullptr) key += query.where->ToString();
  return key;
}

Result<MqoBatchPlan> PlanMqoBatch(
    const std::vector<const AnalyzedQuery*>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("mqo: empty batch");
  }
  MqoBatchPlan plan;
  plan.table = queries[0]->table_name;
  plan.where = queries[0]->where;
  const std::string key = MqoCompatibilityKey(*queries[0]);
  for (const AnalyzedQuery* query : queries) {
    if (MqoCompatibilityKey(*query) != key) {
      return Status::InvalidArgument(
          "mqo: incompatible batch member (table or WHERE differs)");
    }
    PCTAGG_ASSIGN_OR_RETURN(PartialPlan member, BuildPartialPlan(*query));
    plan.partials_requested += member.partials.size();
    for (const std::string& col : member.finest_cols) {
      auto same = [&col](const std::string& c) {
        return EqualsIgnoreCase(c, col);
      };
      if (std::none_of(plan.scan_cols.begin(), plan.scan_cols.end(), same)) {
        plan.scan_cols.push_back(col);
      }
    }
    for (const AggSpec& p : member.partials) {
      std::vector<std::string> found;
      if (!MatchPartials({p}, plan.scan_partials, &found)) {
        plan.scan_partials.push_back(
            {p.func, p.input,
             "__b" + std::to_string(plan.scan_partials.size() + 1)});
      }
    }
  }
  return plan;
}

void AttachMqoScanTrace(MqoBatchScan* batch, std::string detail,
                        obs::QueryTrace* scan_trace) {
  obs::TraceNode& node = batch->node;
  node.detail = std::move(detail);
  node.children = std::move(scan_trace->root().children);
  for (const auto& child : node.children) {
    node.stats.wall_ms += child->stats.wall_ms;
    node.stats.cpu_ms += child->stats.cpu_ms;
  }
}

}  // namespace pctagg
