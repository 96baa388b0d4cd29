#include "core/cost_model.h"

#include <algorithm>

namespace pctagg {

namespace {

// Mirrors the engine's direct-array aggregation threshold (aggregate.cc):
// one string group-by column whose dictionary fits this many slots skips
// hashing entirely.
constexpr size_t kDirectDictMaxSlots = 4096;

}  // namespace

Result<FactStats> CostModel::EstimateStats(
    const PlannerStats& table, const std::vector<std::string>& group_by,
    const std::vector<std::string>& totals_by,
    const std::vector<std::string>& by) const {
  FactStats stats;
  stats.rows = table.rows();
  PCTAGG_ASSIGN_OR_RETURN(stats.group_cardinality,
                          table.ComboCardinality(group_by));
  PCTAGG_ASSIGN_OR_RETURN(stats.totals_cardinality,
                          table.ComboCardinality(totals_by));
  PCTAGG_ASSIGN_OR_RETURN(stats.by_cardinality, table.ComboCardinality(by));
  if (group_by.size() == 1) {
    PCTAGG_ASSIGN_OR_RETURN(const ColumnEstimate* col,
                            table.FindColumn(group_by[0]));
    stats.group_direct_dict =
        col->dictionary && col->dictionary_size + 1 <= kDirectDictMaxSlots;
  }
  return stats;
}

double CostModel::VpctCost(const FactStats& stats,
                           const VpctStrategy& strategy) const {
  const double n = stats.rows;
  const double fk = stats.group_cardinality;
  const double fj = stats.totals_cardinality;
  const double dop = std::max(1.0, stats.dop);
  double cost = 0;
  // Fk: one morsel-parallel scan of F plus |Fk| (serially) materialized rows.
  cost += n * params_.scan / dop + fk * params_.write + params_.statement;
  // Fj: from Fk (tiny) or a second parallel scan of F.
  cost += (strategy.fj_from_fk ? fk : n) * params_.scan / dop +
          fj * params_.write + params_.statement;
  // Index build on Fj: serial (worth it; mismatched indexes waste the build).
  cost += fj * params_.probe + params_.statement;
  // Division: probe Fj once per Fk row (morsel-parallel probe), then INSERT
  // (serial emission) or UPDATE (serial read-modify-write).
  cost += fk * params_.probe / dop;
  if (!strategy.matching_indexes) cost += fj * params_.probe;  // rebuild hash
  cost += fk * (strategy.insert_result ? params_.write : params_.update);
  cost += params_.statement;
  return cost;
}

double CostModel::HorizontalCost(const FactStats& stats,
                                 const HorizontalStrategy& strategy) const {
  const double n = stats.rows;
  const double groups = stats.totals_cardinality;  // result rows (D1..Dj)
  const double cells = stats.by_cardinality;       // N
  const bool from_fv = strategy.method == HorizontalMethod::kCaseFromFV ||
                       strategy.method == HorizontalMethod::kSpjFromFV;
  const bool spj = strategy.method == HorizontalMethod::kSpjDirect ||
                   strategy.method == HorizontalMethod::kSpjFromFV;
  // Rows the transposition actually reads: |FV| is the finest-level group
  // count (already includes the BY columns), capped by n.
  double fv = std::min(n, stats.group_cardinality);
  double pivot_input = from_fv ? fv : n;
  const double dop = std::max(1.0, stats.dop);
  double cost = 0;
  if (from_fv) {
    // Materialize FV first: one parallel scan of F, |FV| serial writes. The
    // write term is why from-FV loses ground as dop grows — the scan it
    // saves shrinks with dop, the materialization it adds does not.
    cost += n * params_.scan / dop + fv * params_.write + params_.statement;
  }
  if (spj) {
    // One full pass + one (parallel) aggregate per result column, then N
    // outer joins.
    cost += cells * (pivot_input * params_.scan / dop +
                     groups * params_.write + 2 * params_.statement);
    cost += cells * groups * (params_.probe + params_.write);
  } else if (strategy.hash_dispatch) {
    // One morsel-parallel scan, two probes per row (group map + combo map),
    // one result table. A small-dictionary string group key replaces its
    // hash probe with a direct array index.
    const double group_probe =
        stats.group_direct_dict ? params_.dict_probe : params_.probe;
    cost += pivot_input * (params_.scan + group_probe + params_.probe) / dop +
            groups * cells * params_.write + params_.statement;
  } else {
    // One parallel scan, N CASE evaluations per row.
    cost += pivot_input * (params_.scan + cells * params_.cell) / dop +
            groups * cells * params_.write + params_.statement;
  }
  return cost;
}

double CostModel::OlapCost(const FactStats& stats) const {
  const double n = stats.rows;
  const double dop = std::max(1.0, stats.dop);
  // Two window passes (each: probe + carry a value per fact row, phase 1
  // morsel-parallel), an n-row division, and an n-row serial DISTINCT.
  return n * 2 * (params_.scan + params_.probe) / dop + n * params_.write +
         n * (params_.scan + params_.probe) + params_.statement;
}

double CostModel::FusedVpctCost(const FactStats& stats) const {
  const double n = stats.rows;
  const double fk = stats.group_cardinality;
  const double fj = stats.totals_cardinality;
  const double dop = std::max(1.0, stats.dop);
  double cost = 0;
  // One fused scan of F straight into the Fk accumulators; the WHERE clause
  // is a selection mask inside the same pass, so filtered rows are never
  // materialized. Only the |Fk| group rows are emitted.
  cost += n * params_.scan / dop + fk * params_.write + params_.statement;
  // Fj re-aggregates the in-memory Fk; no temp tables and no index build —
  // the divide step probes Fj through the aggregate's own hash table.
  cost += fk * params_.scan / dop + fj * params_.write + params_.statement;
  // Vectorized divide: one probe per Fk row plus the FV emission.
  cost += fk * params_.probe / dop + fk * params_.write + params_.statement;
  return cost;
}

double CostModel::FusedHorizontalCost(const FactStats& stats) const {
  const double n = stats.rows;
  const double groups = stats.totals_cardinality;
  const double cells = stats.by_cardinality;
  const double fv = std::min(n, stats.group_cardinality);
  const double dop = std::max(1.0, stats.dop);
  const double group_probe =
      stats.group_direct_dict ? params_.dict_probe : params_.probe;
  double cost = 0;
  // Fused scan of F into the FVh partial aggregates (WHERE folded in); the
  // pivot sink then reads FVh from memory, saving the temp-table statement
  // the materialized from-FV plan pays between its two passes.
  cost += n * params_.scan / dop + fv * params_.write;
  cost += fv * (params_.scan + group_probe + params_.probe) / dop +
          groups * cells * params_.write + params_.statement;
  return cost;
}

double CostModel::LatticeSharedCost(
    const FactStats& stats, const std::vector<double>& level_rows) const {
  const double n = stats.rows;
  const double dop = std::max(1.0, stats.dop);
  const double finest =
      level_rows.empty() ? stats.group_cardinality : level_rows[0];
  // The one fused scan of F into the finest level's partials.
  double cost = n * params_.scan / dop + finest * params_.write +
                params_.statement;
  // Every coarser level re-aggregates cached partials. The executor rolls up
  // from the smallest subsuming ancestor; pricing every rollup against the
  // finest level keeps this a (cheap-to-compute) upper bound.
  for (size_t i = 1; i < level_rows.size(); ++i) {
    cost += finest * params_.scan / dop + level_rows[i] * params_.write +
            params_.statement;
  }
  return cost;
}

double CostModel::DistributedCost(const FactStats& stats, double num_shards,
                                  double shard_dop, double partial_cols) const {
  const double n = stats.rows;
  const double shards = std::max(1.0, num_shards);
  const double dop = std::max(1.0, shard_dop);
  const double groups = std::max(1.0, stats.group_cardinality);
  const double cols = std::max(1.0, partial_cols);
  // Shards scan concurrently: each aggregates its n/shards rows at its own
  // dop and materializes up to `groups` partial rows.
  double cost = n * params_.scan / (shards * dop) + groups * params_.write +
                params_.statement;
  // Every shard ships its partial table; the coordinator deserializes and
  // hash-upserts each cell into the merged summary as results arrive (the
  // merge overlaps in-flight shards, but is itself serial).
  cost += shards * groups * cols * params_.net;
  cost += shards * groups * (params_.probe + params_.update);
  // Coordinator-side assembly over the merged partials (divide/pivot).
  cost += groups * params_.write + params_.statement;
  return cost;
}

double CostModel::MqoBatchCost(const FactStats& stats, double num_queries,
                               double partial_cols) const {
  const double n = stats.rows;
  const double q = std::max(1.0, num_queries);
  const double groups = std::max(1.0, stats.group_cardinality);
  const double cols = std::max(1.0, partial_cols);
  const double dop = std::max(1.0, stats.dop);
  // One fused scan of F into the union-level partials, paid once for the
  // whole batch.
  double cost = n * params_.scan / dop + groups * cols * params_.write +
                params_.statement;
  // Each member rolls the union table down to its own level (a scan + probe
  // per union row) and assembles its percentages from there — proportional
  // to |union level|, not n, which is the whole point.
  cost += q * (groups * (params_.scan + params_.probe) / dop +
               groups * params_.write + params_.statement);
  return cost;
}

double CostModel::LatticePerLevelCost(
    const FactStats& stats, const std::vector<double>& level_rows) const {
  const double n = stats.rows;
  const double dop = std::max(1.0, stats.dop);
  double cost = 0;
  for (double rows : level_rows) {
    cost += n * params_.scan / dop + rows * params_.write + params_.statement;
  }
  return cost;
}

Result<std::vector<double>> CostModel::EstimateLatticeLevelRows(
    const PlannerStats& table, const AnalyzedQuery& query) const {
  std::vector<std::string> by;
  for (const AnalyzedTerm& t : query.terms) {
    if (t.func != TermFunc::kScalar && t.func != TermFunc::kGrouping &&
        t.func != TermFunc::kVpct && t.has_by) {
      by = t.by_columns;
      break;
    }
  }
  std::vector<double> rows;
  rows.reserve(query.grouping_sets.size() + 1);
  bool has_finest = false;
  for (const std::vector<std::string>& level : query.grouping_sets) {
    std::vector<std::string> cols = level;
    cols.insert(cols.end(), by.begin(), by.end());
    PCTAGG_ASSIGN_OR_RETURN(double card, table.ComboCardinality(cols));
    rows.push_back(card);
    has_finest = has_finest || level.size() == query.group_by.size();
  }
  if (!has_finest) {
    std::vector<std::string> cols = query.group_by;
    cols.insert(cols.end(), by.begin(), by.end());
    PCTAGG_ASSIGN_OR_RETURN(double card, table.ComboCardinality(cols));
    rows.push_back(card);
  }
  std::sort(rows.begin(), rows.end(),
            [](double a, double b) { return a > b; });
  return rows;
}

double CostModel::DeltaMergeCost(double delta_rows, double summary_rows,
                                 double dop) const {
  dop = std::max(1.0, dop);
  // Aggregate the delta (parallel scan into at most delta_rows groups),
  // probe each delta group against the cached summary, and read-modify-
  // write the cells that hit (bounded by both cardinalities).
  const double delta_groups = std::min(delta_rows, summary_rows);
  return delta_rows * params_.scan / dop +
         delta_groups * (params_.probe + params_.update) + params_.statement;
}

double CostModel::RecomputeCost(double table_rows, double summary_rows,
                                double dop) const {
  dop = std::max(1.0, dop);
  // Rebuild from every base row on the next query: a full parallel
  // aggregation scan plus serial materialization of the summary rows.
  return table_rows * params_.scan / dop + summary_rows * params_.write +
         params_.statement;
}

VpctStrategy CostModel::PickVpct(const FactStats& stats) const {
  VpctStrategy best;
  double best_cost = VpctCost(stats, best);
  for (bool idx : {true, false}) {
    for (bool ins : {true, false}) {
      for (bool fjfk : {true, false}) {
        VpctStrategy s;
        s.matching_indexes = idx;
        s.insert_result = ins;
        s.fj_from_fk = fjfk;
        double cost = VpctCost(stats, s);
        if (cost < best_cost) {
          best_cost = cost;
          best = s;
        }
      }
    }
  }
  return best;
}

HorizontalStrategy CostModel::PickHorizontal(const FactStats& stats) const {
  HorizontalStrategy best;
  double best_cost = HorizontalCost(stats, best);
  for (HorizontalMethod method :
       {HorizontalMethod::kCaseDirect, HorizontalMethod::kCaseFromFV,
        HorizontalMethod::kSpjDirect, HorizontalMethod::kSpjFromFV}) {
    HorizontalStrategy s;
    s.method = method;
    double cost = HorizontalCost(stats, s);
    if (cost < best_cost) {
      best_cost = cost;
      best = s;
    }
  }
  return best;
}

}  // namespace pctagg
