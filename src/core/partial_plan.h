#ifndef PCTAGG_CORE_PARTIAL_PLAN_H_
#define PCTAGG_CORE_PARTIAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/summary_cache.h"
#include "core/table_stats.h"
#include "engine/aggregate.h"
#include "engine/table.h"
#include "obs/trace.h"
#include "sql/analyzer.h"

namespace pctagg {

// The one partial-aggregation path. The paper computes Fj from Fk because
// sum() is distributive; Gray et al.'s Data Cube generalizes the move: any
// lattice level of a distributive or algebraic aggregate rolls up from any
// finer level. So every fused query — plain aggregates, Vpct, Hpct/Hagg,
// CUBE/ROLLUP/GROUPING SETS, MQO batch members and sharded queries — lowers
// to the same PartialPlan: distributive partials (sum/count/min/max; avg
// decomposed into sum+count) at the query's finest level, GROUP BY ∪ BY,
// rolled up to each emitted level and assembled into the answer (Vpct
// divide, Hpct pivot, GROUPING() ids).
//
// Only the source of the finest-level table differs between callers:
//   1. the exact summary-cache entry,
//   2. a cached ancestor (a mergeable entry at a finer or equal level that
//      carries every partial),
//   3. one fused scan of the fact table, filling the cache single-flight,
//   4. an MQO batch's union table (core/mqo_plan.h): an ancestor that lives
//      for one batch, rolled down under source 2's rule,
//   5. the merged per-shard partials of a sharded table (ShardFetch below).
// FinestPartials picks all five, so the cache fronts the shards as it fronts
// a local scan; an MQO batch's leader reads once at the union level and each
// member's own read finds that union table first.
//
// Rollups keep first-seen group order and INT64 partials combine exactly, so
// every source gives bit-identical answers on integer measures; float sums
// can differ by reassociation only (docs/PARALLELISM.md).

// The single support gate: true when `query` decomposes into distributive
// partials that assemble back into its answer; otherwise `*why` (when
// non-null) receives the reason, worded for grouping sets (which have no
// other evaluator) or for distributed execution (the only other caller that
// surfaces it).
bool PartialPlanSupported(const AnalyzedQuery& query,
                          std::string* why = nullptr);

// The partial-aggregation SELECT a scan of `from` computes: group columns,
// then the aggregates, with the WHERE and GROUP BY clauses. Shard workers run
// it through their PARTIAL verb; EXPLAIN ANALYZE shows it per fused scan.
std::string RenderPartialSelect(const std::vector<std::string>& cols,
                                const std::vector<AggSpec>& aggs,
                                const std::string& from, const ExprPtr& where);

// The re-aggregation that merges each partial column under its own name:
// min stays min, max stays max, sums and counts re-sum.
std::vector<AggSpec> CombineSpecs(const std::vector<AggSpec>& partials);

// One query lowered to finest-level partials plus its rollup and assembly.
struct PartialPlan {
  const AnalyzedQuery* query = nullptr;  // must outlive the plan
  // GROUP BY ∪ BY: the level every source delivers.
  std::vector<std::string> finest_cols;
  // Deduplicated by (function, argument) and named __l1, __l2, ...
  std::vector<AggSpec> partials;
  std::vector<AggSpec> combine;  // CombineSpecs(partials)
  // The aggregation columns of every level the assembly reads (grouping-set
  // columns + the BY columns of a horizontal query): the emitted levels in
  // statement order, then the finest level when the statement did not ask
  // for it.
  std::vector<std::vector<std::string>> levels;
  size_t emitted_levels = 0;
  // Per SELECT term, the partials assembly reads: `main`, plus `count` for
  // avg (sum / count). Scalars and GROUPING() read none.
  struct TermRead {
    static constexpr size_t kNone = static_cast<size_t>(-1);
    size_t main = kNone;
    size_t count = kNone;
  };
  std::vector<TermRead> reads;
  // A horizontal query's single BY term; null for vertical and Vpct.
  const AnalyzedTerm* by_term = nullptr;
  // RenderPartialSelect of the finest level over the query's table.
  std::string partial_sql;
};

// Lowers a supported query; InvalidArgument when PartialPlanSupported says
// no.
Result<PartialPlan> BuildPartialPlan(const AnalyzedQuery& query);

// One top-level step of the partial path, labelled and described as the
// trace node the executor opens for it: what plain EXPLAIN lists.
struct PlanStep {
  std::string label;
  std::string detail;
};

// The source steps, as the trace nodes that fetch the partials are opened
// and plain EXPLAIN lists them. A local table: one fused scan computing
// `partial_sql`. A sharded table: the fan-out of `partial_sql` at `dop` to
// `shards` workers, then the merge of their replies.
PlanStep FusedScanStep(const std::string& partial_sql);
PlanStep ScatterStep(size_t dop, const std::string& partial_sql,
                     size_t shards);
PlanStep GatherStep(size_t shards, size_t group_cols, size_t partials);

// The workers a sharded table's rows live on (docs/SHARDING.md);
// dist::Coordinator implements it over the network. Thread-safe.
class ShardFetch {
 public:
  virtual ~ShardFetch() = default;

  virtual size_t num_shards() const = 0;

  // Scatters `partial_sql` — `partials` grouped by `cols` — to every shard
  // as one PARTIAL at `dop`, concatenates the replies in shard order and
  // rolls them up once to `cols`. Opens the ScatterStep and GatherStep
  // nodes on `trace`. Unavailable naming the shard when one cannot answer.
  virtual Result<Table> Fetch(const std::string& partial_sql,
                              const std::vector<std::string>& cols,
                              const std::vector<AggSpec>& partials, size_t dop,
                              obs::QueryTrace* trace) = 0;

  // DROP TABLE IF EXISTS `table` on every worker; Unavailable naming the
  // shard that failed.
  virtual Status Drop(const std::string& table) = 0;
};

// The typed error of a statement on sharded table `table` that has no
// distributed evaluation, `why` saying what is missing.
Status DistributedError(const std::string& table, const std::string& why);

// The estimated rows of every level of `plan`, in plan.levels order.
std::vector<double> EstimateLevelRows(const PartialPlan& plan,
                                      const PlannerStats& stats);

// The steps after the source, in execution order: the rollups, the pivots
// (horizontal), the assembly. A rollup's "from" level is the ancestor with
// the fewest estimated rows; the executor picks by actual rows.
std::vector<PlanStep> AssemblySteps(const PartialPlan& plan,
                                    const PlannerStats& stats);

struct MqoBatchScan;  // core/mqo_plan.h

// `partials` over `table` (filtered by `where`) grouped by `cols`, from the
// first source that has them: the union table of `batch` (a published MQO
// batch scan of this table and WHERE) rolled down, the exact cache entry, a
// cached ancestor rolled down, or one fused scan of `fact` — or, when
// `shards` is non-null, one fetch from the shards instead of the scan
// (`fact` is then the zero-row stub). Only unfiltered reads with no batch
// consult the cache (`summaries` may be null); a miss fills it
// single-flight, so N identical concurrent misses run one scan or fetch. An
// answer from the batch (whose "mqo-batch" node it copies) or the cache
// renames the strategy on `trace`.
Result<std::shared_ptr<const Table>> FinestPartials(
    const std::string& table, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    const Table& fact, SummaryCache* summaries, obs::QueryTrace* trace,
    size_t dop, ShardFetch* shards = nullptr,
    const MqoBatchScan* batch = nullptr);

// Maps every aggregate of `wanted` onto the column of `available` that
// computes the same (function, argument); false when one is missing.
bool MatchPartials(const std::vector<AggSpec>& wanted,
                   const std::vector<AggSpec>& available,
                   std::vector<std::string>* inputs);

// Rolls `source` — grouped at a superset of `cols` — up to `cols`, computing
// partial i from source column `inputs[i]`. The result has the partials'
// layout (group columns, then one column per partial under its own name).
// Rolling zero source rows up to the global level () patches the count
// partials to 0, as a direct scan of an empty input emits them.
Result<Table> RollUp(const std::vector<AggSpec>& partials, const Table& source,
                     const std::vector<std::string>& cols,
                     const std::vector<std::string>& inputs, size_t dop);

// Rolls every coarser level up from the smallest computed ancestor of the
// finest table and assembles the answer in statement order; the caller
// applies HAVING/ORDER BY/LIMIT. With `summaries` non-null (unfiltered local
// queries), every rolled-up level is looked up in and filled into the cache
// under its own mergeable recipe, so APPEND maintains all of them.
Result<Table> AssembleFromPartials(const PartialPlan& plan,
                                   std::shared_ptr<const Table> finest,
                                   SummaryCache* summaries,
                                   obs::QueryTrace* trace, size_t dop);

}  // namespace pctagg

#endif  // PCTAGG_CORE_PARTIAL_PLAN_H_
