// pctagg_shell — an interactive (or piped) SQL shell for the percentage
// aggregation library.
//
//   $ ./build/tools/pctagg_shell
//   pctagg> .load sales data/sales.csv
//   pctagg> SELECT state, city, Vpct(salesAmt BY city)
//      ...> FROM sales GROUP BY state, city;
//   pctagg> .explain SELECT store, Hpct(salesAmt BY dweek) FROM sales
//                    GROUP BY store;
//
// Statements may span lines and end with ';'. Dot-commands are single-line:
//   .help                      this text
//   .tables                    list tables
//   .schema <table>            show a table's columns
//   .load <table> <file.csv>   load a CSV file (schema inferred)
//   .save <table> <file.csv>   write a table to CSV
//   .gen <employee|sales|transactionline|census> <name> <rows>
//                              create a synthetic paper workload table
//   .explain <sql>             print the plan that would run (EXPLAIN)
//   .olap <sql>                run a Vpct query via the OLAP window baseline
//   .cache <on|off>            toggle the shared-summary cache
//   .timer <on|off>            print per-statement wall-clock time
//   .stats                     dump process metrics (Prometheus text; in
//                              remote mode, the server's via STATS)
//   .remote <host:port>        forward statements to a pctagg_server
//   .local                     drop the remote connection, back to embedded
//   .quit                      exit
//
// In remote mode every statement (and .tables/.schema/.gen/.explain/.olap/
// .cache) is forwarded through the PctProtocol client — the same code path
// pctagg_client uses — so the shell doubles as a protocol smoke test.

#include <cstdio>
#include <unistd.h>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "engine/csv.h"
#include "obs/metrics.h"
#include "pctagg.h"
#include "server/client.h"
#include "workload/generators.h"

namespace {

using pctagg::PctClient;
using pctagg::PctDatabase;
using pctagg::RequestVerb;
using pctagg::Result;
using pctagg::Status;
using pctagg::Table;
using pctagg::WireResponse;

struct ShellState {
  PctDatabase db;
  bool timer = false;
  std::optional<PctClient> remote;
};

std::vector<std::string> SplitWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

void PrintStatus(const Status& status) {
  std::printf("error: %s\n", status.ToString().c_str());
}

void PrintElapsed(const ShellState& state, double millis) {
  if (state.timer) std::printf("elapsed: %.3f ms\n", millis);
}

// Forwards one wire call in remote mode and prints the reply.
void RunRemoteCall(ShellState* state, RequestVerb verb,
                   const std::string& payload) {
  pctagg::Stopwatch timer;
  Result<WireResponse> reply = state->remote->Call(verb, payload);
  double millis = timer.ElapsedMillis();
  if (!reply.ok()) {
    PrintStatus(reply.status());
    std::printf("connection lost, back to embedded mode\n");
    state->remote.reset();
    return;
  }
  if (!reply->status.ok()) {
    PrintStatus(reply->status);
    return;
  }
  if (!reply->body.empty()) std::fputs(reply->body.c_str(), stdout);
  if (verb == RequestVerb::kQuery || verb == RequestVerb::kOlap) {
    std::printf("(%llu rows)\n", (unsigned long long)reply->rows);
  }
  PrintElapsed(*state, millis);
}

void RunStatement(ShellState* state, const std::string& sql) {
  if (state->remote.has_value()) {
    RunRemoteCall(state, RequestVerb::kQuery, sql);
    return;
  }
  pctagg::Stopwatch timer;
  // Execute parses the statement once and runs any kind: a SELECT and its
  // EXPLAIN forms as Query does, and every write, CREATE TABLE AS included
  // (the shell is single-threaded, so writer exclusivity holds trivially).
  Result<Table> result = state->db.Execute(sql);
  double millis = timer.ElapsedMillis();
  if (!result.ok()) {
    PrintStatus(result.status());
    return;
  }
  std::fputs(result->ToString().c_str(), stdout);
  std::printf("(%zu rows)\n", result->num_rows());
  PrintElapsed(*state, millis);
}

void RunDotCommand(ShellState* state, const std::string& line) {
  PctDatabase* db = &state->db;
  std::vector<std::string> words = SplitWords(line);
  const std::string& cmd = words[0];
  bool remote = state->remote.has_value();
  if (cmd == ".help") {
    std::printf(
        ".tables | .schema <t> | .load <t> <csv> | .save <t> <csv> |\n"
        ".gen <kind> <name> <rows> | .explain <sql> | .olap <sql> |\n"
        ".cache on|off | .timer on|off | .stats | .remote <host:port> |\n"
        ".local | .quit — SQL statements end with ';'\n");
    return;
  }
  if (cmd == ".timer" && words.size() == 2) {
    state->timer = words[1] == "on";
    std::printf("timer %s\n", state->timer ? "on" : "off");
    return;
  }
  if (cmd == ".remote" && words.size() == 2) {
    std::string host = words[1];
    int port = 7477;
    size_t colon = host.rfind(':');
    if (colon != std::string::npos) {
      port = std::atoi(host.c_str() + colon + 1);
      host = host.substr(0, colon);
    }
    Result<PctClient> client = PctClient::Connect(host, port);
    if (!client.ok()) {
      PrintStatus(client.status());
      return;
    }
    state->remote = std::move(client).value();
    std::printf("connected to %s:%d — statements now run remotely\n",
                host.c_str(), port);
    return;
  }
  if (cmd == ".local") {
    if (remote) {
      state->remote->Call(RequestVerb::kQuit, "");
      state->remote.reset();
    }
    std::printf("embedded mode\n");
    return;
  }
  if (cmd == ".tables") {
    if (remote) {
      RunRemoteCall(state, RequestVerb::kTables, "");
      return;
    }
    for (const std::string& name : db->catalog().TableNames()) {
      Result<Table*> t = db->catalog().GetTable(name);
      std::printf("%s (%zu rows, %zu columns)\n", name.c_str(),
                  t.ok() ? (*t)->num_rows() : 0,
                  t.ok() ? (*t)->num_columns() : 0);
    }
    return;
  }
  if (cmd == ".schema" && words.size() == 2) {
    if (remote) {
      RunRemoteCall(state, RequestVerb::kSchema, words[1]);
      return;
    }
    Result<Table*> t = db->catalog().GetTable(words[1]);
    if (!t.ok()) {
      PrintStatus(t.status());
      return;
    }
    std::printf("%s(%s)\n", words[1].c_str(),
                (*t)->schema().ToString().c_str());
    return;
  }
  if (cmd == ".load" && words.size() == 3) {
    if (remote) {
      std::printf(".load is local-only; use .gen in remote mode\n");
      return;
    }
    Result<Table> t = pctagg::ReadCsvFileAuto(words[2]);
    if (!t.ok()) {
      PrintStatus(t.status());
      return;
    }
    size_t rows = t.value().num_rows();
    Status s = db->ReplaceTable(words[1], std::move(t).value());
    if (!s.ok()) {
      PrintStatus(s);
      return;
    }
    std::printf("loaded %zu rows into %s\n", rows, words[1].c_str());
    return;
  }
  if (cmd == ".save" && words.size() == 3) {
    if (remote) {
      std::printf(".save is local-only\n");
      return;
    }
    Result<Table*> t = db->catalog().GetTable(words[1]);
    if (!t.ok()) {
      PrintStatus(t.status());
      return;
    }
    Status s = pctagg::WriteCsvFile(**t, words[2]);
    if (!s.ok()) {
      PrintStatus(s);
      return;
    }
    std::printf("wrote %zu rows to %s\n", (*t)->num_rows(), words[2].c_str());
    return;
  }
  if (cmd == ".gen" && words.size() == 4) {
    if (remote) {
      RunRemoteCall(state, RequestVerb::kGen,
                    words[1] + " " + words[2] + " " + words[3]);
      return;
    }
    size_t n = static_cast<size_t>(std::atoll(words[3].c_str()));
    std::string kind = pctagg::ToLower(words[1]);
    Table t;
    if (kind == "employee") {
      t = pctagg::GenerateEmployee(n);
    } else if (kind == "sales") {
      t = pctagg::GenerateSales(n);
    } else if (kind == "transactionline") {
      t = pctagg::GenerateTransactionLine(n);
    } else if (kind == "census") {
      t = pctagg::GenerateCensusLike(n);
    } else {
      std::printf("unknown workload kind: %s\n", words[1].c_str());
      return;
    }
    Status s = db->ReplaceTable(words[2], std::move(t));
    if (!s.ok()) {
      PrintStatus(s);
      return;
    }
    std::printf("generated %zu %s rows into %s\n", n, kind.c_str(),
                words[2].c_str());
    return;
  }
  if (cmd == ".explain") {
    std::string sql = line.substr(cmd.size());
    if (remote) {
      RunRemoteCall(state, RequestVerb::kExplain, sql);
      return;
    }
    Result<std::string> script = db->Explain(sql);
    if (!script.ok()) {
      PrintStatus(script.status());
      return;
    }
    std::fputs(script->c_str(), stdout);
    return;
  }
  if (cmd == ".olap") {
    std::string sql = line.substr(cmd.size());
    if (remote) {
      RunRemoteCall(state, RequestVerb::kOlap, sql);
      return;
    }
    pctagg::Stopwatch timer;
    Result<Table> t = db->QueryOlapBaseline(sql);
    double millis = timer.ElapsedMillis();
    if (!t.ok()) {
      PrintStatus(t.status());
      return;
    }
    std::fputs(t->ToString().c_str(), stdout);
    PrintElapsed(*state, millis);
    return;
  }
  if (cmd == ".stats") {
    if (remote) {
      RunRemoteCall(state, RequestVerb::kStats, "");
      return;
    }
    std::fputs(pctagg::obs::GlobalMetrics().RenderPrometheus().c_str(),
               stdout);
    return;
  }
  if (cmd == ".cache" && words.size() == 2) {
    if (remote) {
      RunRemoteCall(state, RequestVerb::kSet, "cache " + words[1]);
      return;
    }
    db->EnableSummaryCache(words[1] == "on");
    std::printf("summary cache %s\n", words[1] == "on" ? "enabled" : "disabled");
    return;
  }
  std::printf("unrecognized command (try .help): %s\n", line.c_str());
}

}  // namespace

int main() {
  ShellState state;
  std::string pending;
  std::string line;
  bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("pctagg shell — Vpct/Hpct percentage aggregations. "
                ".help for commands.\n");
  }
  while (true) {
    if (interactive) {
      const char* prompt = state.remote.has_value() ? "remote> " : "pctagg> ";
      std::fputs(pending.empty() ? prompt : "   ...> ", stdout);
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    // Dot commands are single-line and only valid with no pending SQL.
    if (pending.empty() && !line.empty() && line[0] == '.') {
      if (line == ".quit" || line == ".exit") break;
      RunDotCommand(&state, line);
      continue;
    }
    pending += line;
    pending.push_back('\n');
    if (line.find(';') == std::string::npos) continue;
    std::string sql;
    sql.swap(pending);
    if (sql.find_first_not_of(" \t\n;") == std::string::npos) continue;
    RunStatement(&state, sql);
  }
  return 0;
}
