#ifndef PCTAGG_SERVER_SESSION_H_
#define PCTAGG_SERVER_SESSION_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/database.h"

namespace pctagg {

// Per-connection session state: strategy overrides, cache toggle, query
// timeout and running counters. A Session is owned by exactly one connection
// thread, so it needs no locking of its own; everything it influences is
// passed per-call into the (thread-safe) executor.
class Session {
 public:
  Session(uint64_t id, uint64_t default_timeout_ms)
      : id_(id),
        default_timeout_ms_(default_timeout_ms),
        timeout_ms_(default_timeout_ms) {}

  uint64_t id() const { return id_; }

  // Options applied to every statement this session runs.
  const QueryOptions& query_options() const { return options_; }

  // Per-query wall-clock budget; 0 disables the deadline.
  uint64_t timeout_ms() const { return timeout_ms_; }

  // Applies "SET <option> <value>". Options:
  //   timeout_ms <n>|default      per-query deadline (0 = none)
  //   cache on|off|default        summary-cache override for this session
  //   vpct auto|best|noindex|update|rescan
  //   horizontal auto|case|case_fv|spj|spj_fv
  //   dop <n>|auto|default        engine kernel parallelism (1..64)
  //   trace on|off                append the executed-plan trace to results
  //   mqo auto|on|off             multi-query shared-scan batching
  //   append_policy auto|merge|recompute   summary maintenance for INSERT/COPY
  // (SET summary_cache_mb is database-wide and handled by the server.)
  // Returns a human-readable confirmation.
  Result<std::string> ApplySet(const std::string& args);

  // When on, every statement response carries the serialized QueryTrace
  // after the CSV body (separated by a "-- trace\n" line).
  bool trace_enabled() const { return trace_; }

  // One line per setting, for SHOW.
  std::string Describe() const;

  void RecordQuery(uint64_t micros, bool ok) {
    ++queries_;
    if (!ok) ++errors_;
    total_micros_ += micros;
  }
  uint64_t queries() const { return queries_; }
  uint64_t errors() const { return errors_; }
  uint64_t total_micros() const { return total_micros_; }

 private:
  // "auto" when degree_of_parallelism is 0, the number otherwise.
  std::string DescribeDop() const;

  uint64_t id_;
  uint64_t default_timeout_ms_;
  uint64_t timeout_ms_;
  QueryOptions options_;
  std::string vpct_name_ = "auto";
  std::string horizontal_name_ = "auto";
  std::string mqo_name_ = "auto";
  std::string append_policy_name_ = "auto";
  bool trace_ = false;
  uint64_t queries_ = 0;
  uint64_t errors_ = 0;
  uint64_t total_micros_ = 0;
};

}  // namespace pctagg

#endif  // PCTAGG_SERVER_SESSION_H_
