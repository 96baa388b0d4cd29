#ifndef PCTAGG_SERVER_DIST_ROUTER_H_
#define PCTAGG_SERVER_DIST_ROUTER_H_

#include <string>

#include "common/status.h"

namespace pctagg {

// The two verbs a coordinator server adds (src/dist/coordinator.h,
// docs/SHARDING.md): SHARD and SHOW's topology line. Statements on sharded
// tables need no hook here: the database answers them from its shards. This
// interface keeps the dependency one-directional: pctagg_dist links
// pctagg_server, never the reverse. Implementations must be safe to call
// from many connection-handler threads at once.
class DistRouter {
 public:
  virtual ~DistRouter() = default;

  // Hash-partitions local base table `table` on `key_column` across the
  // workers, leaving a zero-row schema stub locally (the SHARD verb).
  // InvalidArgument when the database persists its tables, which would
  // checkpoint the stub.
  virtual Status ShardTable(const std::string& table,
                            const std::string& key_column) = 0;

  // One-line topology description for server observability (SHOW).
  virtual std::string Describe() const = 0;
};

}  // namespace pctagg

#endif  // PCTAGG_SERVER_DIST_ROUTER_H_
