#ifndef PCTAGG_DIST_SHARD_H_
#define PCTAGG_DIST_SHARD_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "engine/table.h"

namespace pctagg {
namespace dist {

// Splits `input` into `num_shards` tables by hashing `key_column`:
// row i lands in shard hash(key[i]) % num_shards. The hash is
// value-based — splitmix64 over the INT64 value, FNV-1a over the string
// bytes (dictionary codes are resolved first, so two shards of the same
// table agree regardless of dictionary layout), the bit pattern for
// FLOAT64 — and NULL keys all land in shard 0, so every distinct key value
// lives on exactly one shard and per-shard GROUP BY partials never split a
// group that includes the shard key. Groups on *other* columns do split
// across shards; the coordinator's gather concatenates the shards' partials
// in shard order and rolls them up once (RollUp, core/partial_plan.h). Row
// order within each shard preserves input order, which makes sharded
// results reproducible and INT64 aggregates bit-identical to single-node
// execution.
Result<std::vector<Table>> HashPartitionTable(const Table& input,
                                              const std::string& key_column,
                                              size_t num_shards);

}  // namespace dist
}  // namespace pctagg

#endif  // PCTAGG_DIST_SHARD_H_
