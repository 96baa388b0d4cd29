#include "core/plan.h"

#include <atomic>
#include <cctype>
#include <string_view>

#include "common/string_util.h"

namespace pctagg {

std::string StatementLabel(const std::string& sql) {
  // The leading SQL keyword, skipping any /* annotation */ prefix.
  std::string_view sql_view = sql;
  if (sql_view.substr(0, 2) == "/*") {
    size_t close = sql_view.find("*/");
    if (close != std::string_view::npos) sql_view.remove_prefix(close + 2);
    while (!sql_view.empty() && sql_view.front() == ' ') {
      sql_view.remove_prefix(1);
    }
  }
  std::string label(sql_view.substr(0, sql_view.find_first_of(" \n")));
  for (char& c : label) c = static_cast<char>(std::tolower(c));
  if (label.empty()) label = "statement";  // comment-only annotation step
  return label;
}

void Plan::AddStep(std::string sql, StepFn run) {
  std::string label = StatementLabel(sql);
  steps_.push_back({std::move(label), std::move(sql), true, std::move(run)});
}

void Plan::AddStep(std::string label, std::string detail, StepFn run) {
  steps_.push_back(
      {std::move(label), std::move(detail), false, std::move(run)});
}

std::string Plan::AppendPlan(Plan other) {
  for (Step& step : other.steps_) {
    steps_.push_back(std::move(step));
  }
  for (std::string& name : other.temp_tables_) {
    temp_tables_.push_back(std::move(name));
  }
  return other.result_table_;
}

Result<Table> Plan::Execute(Catalog* catalog, SummaryCache* summaries,
                            obs::QueryTrace* trace) const {
  ExecContext ctx{catalog, summaries, trace};
  Status s;
  for (const Step& step : steps_) {
    if (trace != nullptr) {
      // One top-level node per step; kernels invoked by the step attach
      // operator children.
      ctx.node = trace->root().AddChild(step.label, step.detail);
    }
    {
      obs::ScopedTraceNode scope(ctx.node);
      s = step.run(&ctx);
    }
    if (!s.ok()) {
      if (step.statement) {
        s = Status(s.code(),
                   s.message() + " (while executing: " + step.detail + ")");
      }
      break;
    }
  }
  if (s.ok() && !result_table_.empty()) {
    Result<Table*> result = catalog->GetTable(result_table_);
    s = result.status();
    if (s.ok()) ctx.result = std::move(**result);
  }
  Cleanup(catalog);
  if (!s.ok()) return s;
  return std::move(ctx.result);
}

void Plan::Cleanup(Catalog* catalog) const {
  for (const std::string& name : temp_tables_) {
    if (catalog->HasTable(name)) {
      catalog->DropTable(name).ok();
    }
  }
}

std::string Plan::ToSql() const {
  std::string out;
  for (const Step& step : steps_) {
    if (!step.statement) {
      out += step.label + ": " + step.detail + "\n";
      continue;
    }
    out += step.detail;
    if (!step.detail.empty() && step.detail.back() != ';') out += ";";
    out += "\n";
  }
  return out;
}

std::string NewTempName(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  return prefix + "_" + StrFormat("%04llu",
                                  static_cast<unsigned long long>(++counter));
}

}  // namespace pctagg
