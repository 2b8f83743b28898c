#include "shard/wire.h"

#include "serve/serve_endpoints.h"

namespace inf2vec {
namespace shard {
namespace {

using obs::JsonValue;

bool IsArray(const JsonValue* v) {
  return v != nullptr && v->kind() == JsonValue::Kind::kArray;
}

/// JsonValue::AsInt/AsString abort on the wrong kind, so every field
/// read from the wire is kind-checked first.
bool IsInt(const JsonValue* v) {
  return v != nullptr && v->kind() == JsonValue::Kind::kInt;
}

bool IsString(const JsonValue* v) {
  return v != nullptr && v->kind() == JsonValue::Kind::kString;
}

}  // namespace

obs::JsonValue UserIdsToJson(const std::vector<UserId>& ids) {
  JsonValue array = JsonValue::Array();
  for (UserId id : ids) array.Append(id);
  return array;
}

Result<std::vector<UserId>> UserIdsFromJson(const obs::JsonValue& json,
                                            const std::string& what) {
  if (json.kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument(what + " must be a JSON array");
  }
  std::vector<UserId> ids;
  ids.reserve(json.size());
  for (const JsonValue& item : json.items()) {
    if (!IsInt(&item)) {
      return Status::InvalidArgument(what + " entries must be integers");
    }
    const int64_t id = item.AsInt();
    if (id < 0 || id > static_cast<int64_t>(UINT32_MAX)) {
      return Status::InvalidArgument(what + " entry out of user-id range");
    }
    ids.push_back(static_cast<UserId>(id));
  }
  return ids;
}

obs::JsonValue SeedBlockToJson(const serve::SeedBlock& block) {
  JsonValue json = JsonValue::Object();
  json.Set("dim", block.dim);
  json.Set("quantize", serve::QuantModeName(block.mode()));
  json.Set("seeds", UserIdsToJson(block.seeds));
  JsonValue rows = JsonValue::Array();
  JsonValue scales = JsonValue::Array();
  JsonValue biases = JsonValue::Array();
  for (size_t i = 0; i < block.num_seeds(); ++i) {
    JsonValue row = JsonValue::Array();
    for (uint32_t d = 0; d < block.dim; ++d) row.Append(block.Element(i, d));
    rows.Append(std::move(row));
    scales.Append(block.scales[i]);
    biases.Append(block.biases[i]);
  }
  json.Set("rows", std::move(rows));
  json.Set("scales", std::move(scales));
  json.Set("biases", std::move(biases));
  return json;
}

Result<serve::SeedBlock> SeedBlockFromJson(const obs::JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("seed block must be a JSON object");
  }
  const JsonValue* dim_v = json.Find("dim");
  if (!IsInt(dim_v) || dim_v->AsInt() <= 0 ||
      dim_v->AsInt() > static_cast<int64_t>(UINT32_MAX)) {
    return Status::InvalidArgument("seed block missing positive 'dim'");
  }
  const uint32_t dim = static_cast<uint32_t>(dim_v->AsInt());
  // The codec's one look at the element type: it shapes the rows below.
  const JsonValue* mode_v = json.Find("quantize");
  serve::QuantMode mode = serve::QuantMode::kNone;
  if (!IsString(mode_v) ||
      !serve::ParseQuantModeName(mode_v->AsString(), &mode)) {
    return Status::InvalidArgument(
        "seed block 'quantize' must be \"none\" or \"int8\"");
  }
  const JsonValue* seeds_v = json.Find("seeds");
  if (seeds_v == nullptr) {
    return Status::InvalidArgument("seed block missing 'seeds'");
  }
  Result<std::vector<UserId>> seeds = UserIdsFromJson(*seeds_v, "seeds");
  INF2VEC_RETURN_IF_ERROR(seeds.status());
  const size_t num_seeds = seeds.value().size();

  const JsonValue* rows = json.Find("rows");
  const JsonValue* scales = json.Find("scales");
  const JsonValue* biases = json.Find("biases");
  if (!IsArray(rows) || !IsArray(scales) || !IsArray(biases) ||
      rows->size() != num_seeds || scales->size() != num_seeds ||
      biases->size() != num_seeds) {
    return Status::InvalidArgument(
        "seed block rows/scales/biases disagree with seed count");
  }
  // Shape before allocating: every row the block will hold is present in
  // the body, so a forged dim cannot size an allocation on its own.
  for (const JsonValue& row : rows->items()) {
    if (row.kind() != JsonValue::Kind::kArray || row.size() != dim) {
      return Status::InvalidArgument("seed row length disagrees with dim");
    }
  }
  serve::SeedBlock block =
      serve::SeedBlock::Shaped(mode, dim, std::move(seeds).value());
  for (size_t i = 0; i < num_seeds; ++i) {
    const JsonValue& row = rows->items()[i];
    for (uint32_t d = 0; d < dim; ++d) {
      if (!row.items()[d].is_number()) {
        return Status::InvalidArgument("seed row entries must be numbers");
      }
      INF2VEC_RETURN_IF_ERROR(
          block.SetElement(i, d, row.items()[d].AsDouble()));
    }
    if (!scales->items()[i].is_number() || !biases->items()[i].is_number()) {
      return Status::InvalidArgument("seed scales/biases must be numbers");
    }
    block.scales[i] = scales->items()[i].AsDouble();
    block.biases[i] = biases->items()[i].AsDouble();
  }
  return block;
}

obs::JsonValue ShardTopKRequestToJson(const ShardTopKRequest& request) {
  JsonValue json = JsonValue::Object();
  json.Set("k", request.k);
  if (request.aggregation.has_value()) {
    json.Set("aggregation", AggregationName(*request.aggregation));
  }
  if (request.deadline_us != 0) json.Set("deadline_us", request.deadline_us);
  json.Set("exclude", UserIdsToJson(request.exclude));
  json.Set("block", SeedBlockToJson(request.block));
  return json;
}

Result<ShardTopKRequest> ShardTopKRequestFromJson(const obs::JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("shard topk request must be an object");
  }
  ShardTopKRequest request;
  const JsonValue* k = json.Find("k");
  if (!IsInt(k) || k->AsInt() <= 0 ||
      k->AsInt() > static_cast<int64_t>(UINT32_MAX)) {
    return Status::InvalidArgument("shard topk request needs positive 'k'");
  }
  request.k = static_cast<uint32_t>(k->AsInt());
  if (const JsonValue* agg = json.Find("aggregation")) {
    if (!IsString(agg)) {
      return Status::InvalidArgument("aggregation must be a string");
    }
    Result<Aggregation> parsed = ParseAggregation(agg->AsString());
    INF2VEC_RETURN_IF_ERROR(parsed.status());
    request.aggregation = parsed.value();
  }
  if (const JsonValue* deadline = json.Find("deadline_us")) {
    if (!IsInt(deadline) || deadline->AsInt() < 0) {
      return Status::InvalidArgument("deadline_us must be non-negative");
    }
    request.deadline_us = static_cast<uint64_t>(deadline->AsInt());
  }
  if (const JsonValue* exclude = json.Find("exclude")) {
    Result<std::vector<UserId>> ids = UserIdsFromJson(*exclude, "exclude");
    INF2VEC_RETURN_IF_ERROR(ids.status());
    request.exclude = std::move(ids).value();
  }
  const JsonValue* block = json.Find("block");
  if (block == nullptr) {
    return Status::InvalidArgument("shard topk request missing 'block'");
  }
  Result<serve::SeedBlock> decoded = SeedBlockFromJson(*block);
  INF2VEC_RETURN_IF_ERROR(decoded.status());
  request.block = std::move(decoded).value();
  return request;
}

obs::JsonValue ShardTopKResponseToJson(const ShardTopKResponse& response) {
  JsonValue json = JsonValue::Object();
  json.Set("shard", response.shard_index);
  json.Set("scanned", response.scanned);
  json.Set("entries", serve::TopKEntriesJson(response.entries));
  return json;
}

Result<ShardTopKResponse> ShardTopKResponseFromJson(
    const obs::JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("shard topk response must be an object");
  }
  ShardTopKResponse response;
  const JsonValue* shard = json.Find("shard");
  if (!IsInt(shard) || shard->AsInt() < 0) {
    return Status::InvalidArgument("shard topk response missing 'shard'");
  }
  response.shard_index = static_cast<uint32_t>(shard->AsInt());
  const JsonValue* scanned = json.Find("scanned");
  if (!IsInt(scanned) || scanned->AsInt() < 0) {
    return Status::InvalidArgument("shard topk response missing 'scanned'");
  }
  response.scanned = static_cast<uint64_t>(scanned->AsInt());
  const JsonValue* entries = json.Find("entries");
  if (!IsArray(entries)) {
    return Status::InvalidArgument("shard topk response missing 'entries'");
  }
  response.entries.reserve(entries->size());
  for (const JsonValue& row : entries->items()) {
    const JsonValue* user = row.Find("user");
    const JsonValue* score = row.Find("score");
    if (!IsInt(user) || user->AsInt() < 0 ||
        user->AsInt() > static_cast<int64_t>(UINT32_MAX) ||
        score == nullptr || !score->is_number()) {
      return Status::InvalidArgument("malformed shard topk entry");
    }
    response.entries.push_back(
        {static_cast<UserId>(user->AsInt()), score->AsDouble()});
  }
  return response;
}

}  // namespace shard
}  // namespace inf2vec
