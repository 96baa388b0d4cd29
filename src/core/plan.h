#ifndef PCTAGG_CORE_PLAN_H_
#define PCTAGG_CORE_PLAN_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/summary_cache.h"
#include "engine/catalog.h"
#include "engine/index.h"
#include "engine/table.h"
#include "obs/trace.h"

namespace pctagg {

// Everything a plan step can touch while running: the catalog of named
// tables, the hash indexes built by CREATE INDEX steps (keyed by table
// name), an optional cross-query summary cache, the query's trace and the
// step's own node in it. Indexes do not outlive one plan execution; the
// cache does.
struct ExecContext {
  Catalog* catalog;
  SummaryCache* summaries = nullptr;  // null: caching disabled
  // Null when untraced. A step may rename the strategy and annotate `node`,
  // the top-level node Plan::Execute opened for it.
  obs::QueryTrace* trace = nullptr;
  obs::TraceNode* node = nullptr;
  std::map<std::string, HashIndex> indexes = {};
  // The answer of a plan without a result table, left by its last step.
  Table result = {};

  const HashIndex* IndexFor(const std::string& table) const {
    auto it = indexes.find(table);
    return it == indexes.end() ? nullptr : &it->second;
  }
};

// An executable sequence of steps, how every SELECT runs (PlanSelect,
// core/select_plan.h). This mirrors the paper's code-generation framework:
// a generated statement carries the SQL text the Java generator would have
// emitted ("INSERT INTO Fk SELECT ...") and the engine routine that
// evaluates it; the partial path's and a projection's steps carry a label
// and a detail instead. Execute opens one trace node per step and ToSql
// prints one entry per step, so EXPLAIN ANALYZE and EXPLAIN agree.
class Plan {
 public:
  using StepFn = std::function<Status(ExecContext*)>;

  // Appends one generated statement, labelled by StatementLabel(sql).
  void AddStep(std::string sql, StepFn run);
  // Appends one step that is not a statement.
  void AddStep(std::string label, std::string detail, StepFn run);

  // Names the table holding the answer once the steps ran.
  void set_result_table(std::string name) { result_table_ = std::move(name); }

  // Registers a temporary table dropped by Cleanup(). The result table is
  // dropped too unless the caller keeps it.
  void AddTempTable(std::string name) {
    temp_tables_.push_back(std::move(name));
  }

  size_t num_steps() const { return steps_.size(); }

  // Splices all steps and temp tables of `other` onto this plan (used to
  // embed a Vpct subplan inside an Hpct-from-FV plan). The other plan's
  // result-table name is returned so the caller can read from it.
  std::string AppendPlan(Plan other);

  // Runs all steps in order against a fresh ExecContext and returns the
  // answer: the table set_result_table() named, or the one the last step left
  // in ExecContext::result. Temporary tables are dropped either way. A
  // non-null `summaries` lets cache-aware steps skip recomputation. A
  // non-null `trace` gets one top-level node per step, with engine
  // operators attaching child nodes through obs::CurrentOp().
  Result<Table> Execute(Catalog* catalog, SummaryCache* summaries = nullptr,
                        obs::QueryTrace* trace = nullptr) const;

  // Drops every registered temporary table (ignores absent ones, so Cleanup
  // is safe after a failed Execute).
  void Cleanup(Catalog* catalog) const;

  // One line block per step, what plain EXPLAIN prints under the plan's
  // header: a statement's SQL, terminated by ';', or "label: detail".
  std::string ToSql() const;

 private:
  struct Step {
    std::string label;
    std::string detail;  // a statement's SQL
    bool statement;
    StepFn run;
  };
  std::vector<Step> steps_;
  std::vector<std::string> temp_tables_;
  std::string result_table_;
};

// The trace label of a generated statement: its leading SQL keyword in
// lower case ("insert", "update", ...), skipping a /* annotation */ prefix;
// "statement" for a comment-only step.
std::string StatementLabel(const std::string& sql);

// Process-unique temporary table name with the given prefix ("Fk" ->
// "Fk_0007"). Plans built concurrently never collide.
std::string NewTempName(const std::string& prefix);

}  // namespace pctagg

#endif  // PCTAGG_CORE_PLAN_H_
