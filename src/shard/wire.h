// JSON wire encoding of the shard protocol (coordinator <-> shard):
// seed blocks, scatter top-k requests, and per-shard result entries.
//
// Numbers travel as JSON doubles rendered with %.17g (obs::JsonValue),
// which round-trips every finite double exactly through ParseJson — so a
// SeedBlock decoded on the shard side is bit-identical to the block the
// coordinator gathered, and transported scores compare with == against
// single-node scores. A seed block names its element type once
// ("quantize": "none" | "int8"); int8 codes and fp32-derived scales and
// biases are exact as JSON numbers too.
#ifndef INF2VEC_SHARD_WIRE_H_
#define INF2VEC_SHARD_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "obs/json.h"
#include "serve/influence_service.h"
#include "serve/serving_table.h"
#include "util/status.h"

namespace inf2vec {
namespace shard {

/// SeedBlock -> JSON. `seeds` carries the ids the rows were gathered for
/// (global ids on the shard wire). Row padding is not transported; the
/// decoder re-pads to the kernel stride with zeros, exactly like
/// GatherSeedBlock.
obs::JsonValue SeedBlockToJson(const serve::SeedBlock& block);

/// Inverse of SeedBlockToJson: rebuilds the block at the kernel-aligned
/// stride for its element type and dim. Rejects shape mismatches (row
/// length vs dim, array length disagreements) and int8 codes outside
/// [-128, 127].
Result<serve::SeedBlock> SeedBlockFromJson(const obs::JsonValue& json);

/// POST /topk body sent by the coordinator to every shard.
struct ShardTopKRequest {
  uint32_t k = 10;
  std::optional<Aggregation> aggregation;
  uint64_t deadline_us = 0;
  /// Global ids to exclude from the ranking (the coordinator's seed set
  /// unless include_seeds was requested).
  std::vector<UserId> exclude;
  serve::SeedBlock block;
};

obs::JsonValue ShardTopKRequestToJson(const ShardTopKRequest& request);
Result<ShardTopKRequest> ShardTopKRequestFromJson(const obs::JsonValue& json);

/// One shard's POST /topk response payload.
struct ShardTopKResponse {
  uint32_t shard_index = 0;
  uint64_t scanned = 0;
  /// Global-id entries in the shard's local ranking order (descending
  /// score, ascending id on ties).
  std::vector<serve::TopKEntry> entries;
};

obs::JsonValue ShardTopKResponseToJson(const ShardTopKResponse& response);
Result<ShardTopKResponse> ShardTopKResponseFromJson(
    const obs::JsonValue& json);

/// Parses a JSON array of user ids (rejects negatives / non-ints).
Result<std::vector<UserId>> UserIdsFromJson(const obs::JsonValue& json,
                                            const std::string& what);
obs::JsonValue UserIdsToJson(const std::vector<UserId>& ids);

}  // namespace shard
}  // namespace inf2vec

#endif  // INF2VEC_SHARD_WIRE_H_
