#ifndef PCTAGG_CORE_COST_MODEL_H_
#define PCTAGG_CORE_COST_MODEL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/horizontal_planner.h"
#include "core/table_stats.h"
#include "core/vpct_planner.h"
#include "sql/analyzer.h"

namespace pctagg {

// An analytic cost model for percentage-query strategies — the paper's
// future-work direction "we want to characterize our query optimization
// strategies more precisely in theoretical terms with I/O cost models",
// adapted to an in-memory engine: costs are abstract row-operation counts,
// not seconds, and are useful for *ranking* strategies, which is all the
// advisor needs.
//
// Inputs are simple statistics over the fact table: n (rows), the estimated
// number of groups |Fk| at the GROUP BY level, |Fj| at each totals level,
// and N (the number of result columns of a horizontal term).
//
// Cost terms (per row unless stated):
//   kScanCost      reading one fact row through an aggregation/pivot
//   kCellCost      evaluating one CASE conjunction for one row (naive mode)
//   kProbeCost     one hash probe (join/lookup/dispatch)
//   kDictProbeCost one direct-array lookup when a small dictionary lets the
//                  group key index the accumulators without hashing
//   kWriteCost     materializing one output row (INSERT)
//   kUpdateCost    read-modify-write of one row (UPDATE)
//   kStatementCost fixed overhead per generated statement
//   kNetCost       shipping one partial-summary cell between processes
//                  (serialize + TCP + deserialize; dwarfs an in-memory row op)
struct CostParams {
  double scan = 1.0;
  double cell = 0.15;
  double probe = 0.5;
  double dict_probe = 0.1;
  double write = 0.6;
  double update = 2.0;
  double statement = 50.0;
  double net = 2.5;
};

// Statistics the model needs for one query shape; derived from a table's
// PlannerStats via EstimateStats.
struct FactStats {
  double rows = 0;  // n
  // Cardinality at the finest aggregation level a plan materializes: the
  // GROUP BY level for Vpct (|Fk|), or D1..Dj ∪ BY for horizontal terms
  // (|FV|).
  double group_cardinality = 1;
  double totals_cardinality = 1;  // |Fj| / result-row estimate (D1..Dj)
  double by_cardinality = 1;      // N: product of BY-column cardinalities
  // Degree of parallelism the engine will run the plan's scans at. The
  // morsel-parallel phases — aggregation/pivot/window scans and hash-probe
  // passes — divide by this; serial phases (result materialization, UPDATE's
  // read-modify-write, index builds) do not, which is what moves the
  // from-F-vs-from-FV crossover as dop grows (see docs/PARALLELISM.md).
  double dop = 1;
  // True when the group-by set is a single dictionary-encoded string column
  // small enough for the engine's direct-array aggregation path, which
  // replaces the per-row hash probe with an array index (kDictProbeCost).
  bool group_direct_dict = false;
};

// Cardinalities come from the table's PlannerStats (core/table_stats.h): the
// statistics PctDatabase keeps with every base table, so estimating a query
// shape reads no rows. Multi-column products use the standard independence
// assumption, capped at n.
class CostModel {
 public:
  explicit CostModel(CostParams params = CostParams()) : params_(params) {}

  // Estimates FactStats for a Vpct query shape (group_by = D1..Dk,
  // totals_by = D1..Dj) or a horizontal shape (group_by = D1..Dj,
  // by = Dh..Dk).
  Result<FactStats> EstimateStats(const PlannerStats& table,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<std::string>& totals_by,
                                  const std::vector<std::string>& by) const;

  // Abstract cost of evaluating a Vpct query under `strategy`.
  double VpctCost(const FactStats& stats, const VpctStrategy& strategy) const;

  // Abstract cost of a horizontal term under `strategy`.
  double HorizontalCost(const FactStats& stats,
                        const HorizontalStrategy& strategy) const;

  // Abstract cost of the OLAP window formulation of the same Vpct query.
  double OlapCost(const FactStats& stats) const;

  // Fused push-based pipelines (core/pipeline_plan.h). The Vpct pipeline is
  // the best materialized strategy minus the Fj index build and one
  // statement: WHERE folds into the scan, Fj is probed through its own
  // in-memory hash table, and no temporary catalog tables are created. The
  // horizontal pipeline is CASE-from-FV minus one statement — so it wins
  // exactly where from-FV already wins over direct (|FV| << n), which is the
  // crossover the advisor looks for.
  double FusedVpctCost(const FactStats& stats) const;
  double FusedHorizontalCost(const FactStats& stats) const;

  // Grouping-set lattices (core/lattice_plan.h). `level_rows` is the
  // estimated result cardinality of each lattice level, sorted descending
  // with the finest level first (the shape EstimateLatticeLevelRows
  // returns). Shared-scan: one fused pass of F builds the finest level, and
  // every coarser level re-aggregates at most |finest| cached partial rows.
  // Per-level: every level pays its own full scan of F — the n·scan term
  // multiplies by the level count, which is why shared wins whenever
  // |finest| << n.
  double LatticeSharedCost(const FactStats& stats,
                           const std::vector<double>& level_rows) const;
  double LatticePerLevelCost(const FactStats& stats,
                             const std::vector<double>& level_rows) const;

  // Estimated result cardinality of every lattice level of `query`
  // (grouping sets already expanded by the analyzer), sorted descending with
  // the finest level first; includes the synthetic finest level when the
  // union itself was not requested. For horizontal queries the single BY
  // term's columns join every level (the lattice aggregates at level ∪ BY).
  Result<std::vector<double>> EstimateLatticeLevelRows(
      const PlannerStats& table, const AnalyzedQuery& query) const;

  // Sharded scatter/gather execution (src/dist/). Each of `num_shards`
  // workers scans its rows/num_shards share at `shard_dop` and ships a
  // partial table of ~group_cardinality rows × `partial_cols` cells; the
  // coordinator merges the shard partials as they arrive (hash upsert per
  // cell, serial) and assembles the percentages from the merged table. The
  // wall-clock win is the scan term dividing by num_shards·shard_dop — the
  // network and merge terms grow with shards, which is the fan-out tradeoff
  // EXPLAIN ANALYZE shows next to the single-node candidate.
  double DistributedCost(const FactStats& stats, double num_shards,
                         double shard_dop, double partial_cols) const;

  // Multi-query shared-scan batching (core/mqo_plan.h). `num_queries`
  // concurrently admitted compatible queries share ONE fused scan of F
  // computing `partial_cols` deduplicated union partials at the union finest
  // level (~group_cardinality rows); each member then rolls that small table
  // down to its own level and assembles percentages. The per-query cost that
  // remains after the scan is shared is proportional to the union
  // cardinality, not n — batching wins whenever |union level| << n, and the
  // solo alternative the gate compares against is num_queries independent
  // fused scans (num_queries × FusedVpctCost).
  double MqoBatchCost(const FactStats& stats, double num_queries,
                      double partial_cols) const;

  // Minimum-cost strategies according to the model.
  VpctStrategy PickVpct(const FactStats& stats) const;
  HorizontalStrategy PickHorizontal(const FactStats& stats) const;

  // Append-path maintenance of one cached summary (core/summary_cache.h).
  //
  // Delta-merge: aggregate the `delta_rows` appended rows (morsel-parallel
  // scan), then upsert at most min(delta groups, summary rows) cells into
  // the cached table — a serial read-modify-write per touched group.
  double DeltaMergeCost(double delta_rows, double summary_rows,
                        double dop) const;

  // Invalidate-recompute: drop the entry and rebuild it from all
  // `table_rows` base rows on the next query (parallel scan + serial
  // materialization of the summary).
  double RecomputeCost(double table_rows, double summary_rows,
                       double dop) const;

  const CostParams& params() const { return params_; }

 private:
  CostParams params_;
};

}  // namespace pctagg

#endif  // PCTAGG_CORE_COST_MODEL_H_
