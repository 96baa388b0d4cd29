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
  steps_.push_back({std::move(sql), std::move(run)});
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

Status Plan::Execute(Catalog* catalog, SummaryCache* summaries,
                     obs::QueryTrace* trace) const {
  ExecContext ctx(catalog, summaries);
  for (const Step& step : steps_) {
    Status s;
    if (trace != nullptr) {
      // One trace node per generated statement; kernels invoked by the step
      // attach operator children.
      obs::TraceNode* node =
          trace->root().AddChild(StatementLabel(step.sql), step.sql);
      obs::ScopedTraceNode scope(node);
      s = step.run(&ctx);
    } else {
      s = step.run(&ctx);
    }
    if (!s.ok()) {
      return Status(s.code(),
                    s.message() + " (while executing: " + step.sql + ")");
    }
  }
  return Status::OK();
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
    out += step.sql;
    if (!step.sql.empty() && step.sql.back() != ';') out += ";";
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
