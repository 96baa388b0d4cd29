#ifndef PCTAGG_CORE_PARTIAL_PLAN_H_
#define PCTAGG_CORE_PARTIAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/plan.h"
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
// LowerPartialPlan turns it into plan steps (core/plan.h). Only the steps
// that fetch the finest-level table differ between queries:
//   1. the exact summary-cache entry,
//   2. a cached ancestor (a mergeable entry at a finer or equal level that
//      carries every partial),
//   3. one fused scan of the fact table, filling the cache single-flight,
//   4. an MQO batch's union table (core/mqo_plan.h): an ancestor that lives
//      for one batch, rolled down under source 2's rule,
//   5. the merged per-shard partials of a sharded table (ShardFetch below).
// The planner lowers source 3, 4 or 5, and the first step of 3 or 5 answers
// from 1 or 2 when the cache holds them. An MQO batch's leader reads its
// union level through the same steps (FinestPartials).
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

// One query lowered to finest-level partials plus its rollup and assembly.
struct PartialPlan {
  const AnalyzedQuery* query = nullptr;  // must outlive the plan
  // GROUP BY ∪ BY: the level every source delivers.
  std::vector<std::string> finest_cols;
  // Deduplicated by (function, argument) and named __l1, __l2, ...
  std::vector<AggSpec> partials;
  std::vector<AggSpec> combine;  // min/max stay, sums and counts re-sum
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
  // The finest level's SELECT over the query's table, as scans run it.
  std::string partial_sql;
};

// Lowers a supported query; InvalidArgument when PartialPlanSupported says
// no.
Result<PartialPlan> BuildPartialPlan(const AnalyzedQuery& query);

// The workers a sharded table's rows live on (docs/SHARDING.md);
// dist::Coordinator implements it over the network. Thread-safe. Its two
// calls are the partial path's `scatter` and `gather-merge` steps.
class ShardFetch {
 public:
  virtual ~ShardFetch() = default;

  virtual size_t num_shards() const = 0;

  // Sends `partial_sql` to every shard as one PARTIAL at `dop`: the replies
  // in shard order, whose rows and shards `node` (may be null) records.
  // Unavailable naming the shard when one cannot answer.
  virtual Result<std::vector<Table>> Scatter(const std::string& partial_sql,
                                             size_t dop,
                                             obs::TraceNode* node) = 0;

  // Concatenates `replies` in shard order and rolls them up once to `cols`.
  virtual Result<Table> Gather(std::vector<Table> replies,
                               const std::vector<std::string>& cols,
                               const std::vector<AggSpec>& partials,
                               size_t dop) = 0;

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

struct MqoBatchScan;  // core/mqo_plan.h

// Where a partial plan's finest level comes from; none set: a fused scan.
struct PartialSource {
  ShardFetch* shards = nullptr;  // a sharded table's workers
  // The MQO batch the query was a member of: it serves when its union table
  // covers the query's table, WHERE and finest level, and no level is cached.
  const MqoBatchScan* batch = nullptr;
  std::shared_ptr<const Table> finest;  // already fetched: no source steps
};

// Appends the steps of `plan`, run at `dop`, to `steps`: `fused-scan`, or
// `scatter` + `gather-merge`, or `mqo-batch` + `mqo-batch-rollup`; then each
// `lattice-rollup`, each `lattice-pivot` and `lattice-assemble`, which
// leaves the answer in ExecContext::result. A source step the cache answers
// is marked cache=hit, or relabelled `cache: cache-ancestor-rollup`. A
// rollup lists the ancestor with the fewest rows `stats` estimate and runs
// from the one with the fewest actual rows. An unfiltered plan looks every
// level up in the summary cache and fills it.
void LowerPartialPlan(PartialPlan plan, const PartialSource& source,
                      const PlannerStats& stats, size_t dop, Plan* steps);

// `partials` over `table` (filtered by `where`) grouped by `cols`, read by
// the source steps a query's plan runs (a fused scan, or the shards when
// `shards` is non-null), traced onto `trace`. An unfiltered read goes
// through `summaries` (may be null), so N identical concurrent misses run
// one scan or fetch. An MQO batch's leader reads its union level with it.
Result<std::shared_ptr<const Table>> FinestPartials(
    const std::string& table, const ExprPtr& where,
    const std::vector<std::string>& cols, const std::vector<AggSpec>& partials,
    Catalog* catalog, SummaryCache* summaries, obs::QueryTrace* trace,
    size_t dop, ShardFetch* shards = nullptr);

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

}  // namespace pctagg

#endif  // PCTAGG_CORE_PARTIAL_PLAN_H_
