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
#include "obs/trace.h"

namespace pctagg {

// Everything a plan step can touch while running: the catalog of named
// tables, the hash indexes built by CREATE INDEX steps (keyed by table
// name), and an optional cross-query summary cache. Indexes do not outlive
// one plan execution; the cache does.
struct ExecContext {
  explicit ExecContext(Catalog* catalog_in, SummaryCache* summaries_in = nullptr)
      : catalog(catalog_in), summaries(summaries_in) {}

  Catalog* catalog;
  SummaryCache* summaries;  // may be null (caching disabled)
  std::map<std::string, HashIndex> indexes;

  const HashIndex* IndexFor(const std::string& table) const {
    auto it = indexes.find(table);
    return it == indexes.end() ? nullptr : &it->second;
  }
};

// An executable sequence of generated statements. This mirrors the paper's
// code-generation framework: each step carries the SQL text the Java
// generator would have emitted ("INSERT INTO Fk SELECT ...") together with
// the engine routine that evaluates it. Benchmarks time Execute(); tests and
// examples read the SQL via ToSql().
class Plan {
 public:
  using StepFn = std::function<Status(ExecContext*)>;

  // Appends one statement.
  void AddStep(std::string sql, StepFn run);

  // Name of the table holding the final result after Execute().
  const std::string& result_table() const { return result_table_; }
  void set_result_table(std::string name) { result_table_ = std::move(name); }

  // Registers a temporary table dropped by Cleanup(). The result table is
  // dropped too unless the caller keeps it.
  void AddTempTable(std::string name) {
    temp_tables_.push_back(std::move(name));
  }
  const std::vector<std::string>& temp_tables() const { return temp_tables_; }

  size_t num_steps() const { return steps_.size(); }

  // Splices all steps and temp tables of `other` onto this plan (used to
  // embed a Vpct subplan inside an Hpct-from-FV plan). The other plan's
  // result-table name is returned so the caller can read from it.
  std::string AppendPlan(Plan other);

  // Runs all steps in order against a fresh ExecContext. A non-null
  // `summaries` lets cache-aware steps skip recomputation. A non-null
  // `trace` collects one TraceNode per generated statement, with engine
  // operators attaching child nodes through obs::CurrentOp().
  Status Execute(Catalog* catalog, SummaryCache* summaries = nullptr,
                 obs::QueryTrace* trace = nullptr) const;

  // Drops every registered temporary table (ignores absent ones, so Cleanup
  // is safe after a failed Execute).
  void Cleanup(Catalog* catalog) const;

  // The generated SQL script, one statement per line block.
  std::string ToSql() const;

 private:
  struct Step {
    std::string sql;
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
