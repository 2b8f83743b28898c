#include "shard/shard_service.h"

#include <utility>
#include <vector>

#include "serve/serve_endpoints.h"
#include "shard/wire.h"
#include "util/string_util.h"

namespace inf2vec {
namespace shard {
namespace {

using obs::HttpRequest;
using obs::HttpResponse;
using obs::JsonValue;
using serve::ErrorResponse;

Result<JsonValue> ParseBody(const HttpRequest& request) {
  if (request.body.empty()) {
    return Status::InvalidArgument("request body is empty");
  }
  Result<JsonValue> parsed = obs::ParseJson(request.body);
  if (!parsed.ok()) {
    return Status::InvalidArgument("malformed JSON body: " +
                                   parsed.status().message());
  }
  return parsed;
}

}  // namespace

std::string FormatModelHash(uint64_t hash) {
  return StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

ShardService::ShardService(serve::InfluenceService service,
                           ShardSliceInfo info)
    : service_(std::make_unique<serve::InfluenceService>(std::move(service))),
      info_(info) {}

Result<ShardService> ShardService::Load(const std::string& artifact_path,
                                        serve::ServiceOptions options,
                                        obs::MetricsRegistry* registry) {
  Result<ModelArtifact> artifact = LoadModelArtifact(artifact_path);
  INF2VEC_RETURN_IF_ERROR(artifact.status());
  if (!artifact.value().shard.has_value()) {
    return Status::FailedPrecondition(
        "not a shard artifact (no I2VSHRD1 section; run shard-split): " +
        artifact_path);
  }
  const ShardSliceInfo info = *artifact.value().shard;
  Result<serve::InfluenceService> service =
      serve::InfluenceService::FromArtifact(std::move(artifact).value(),
                                            std::move(options), registry,
                                            artifact_path);
  INF2VEC_RETURN_IF_ERROR(service.status());
  return ShardService(std::move(service).value(), info);
}

obs::JsonValue ShardService::ShardzJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("shard_index", info_.shard_index);
  json.Set("num_shards", info_.num_shards);
  json.Set("begin_user", info_.begin_user);
  json.Set("end_user", info_.end_user);
  json.Set("total_users", info_.total_users);
  json.Set("model_hash", FormatModelHash(info_.model_hash));
  json.Set("dim", service_->dim());
  json.Set("quantize", serve::QuantModeName(service_->quant_mode()));
  json.Set("aggregation", AggregationName(service_->default_aggregation()));
  return json;
}

void RegisterShardEndpoints(obs::StatsServer* server,
                            const ShardService* shard) {
  server->Route("GET", "/shardz", [shard](const HttpRequest&) {
    return HttpResponse::Json(200, shard->ShardzJson().Dump(2) + "\n");
  });

  server->Route("GET", "/modelz", [shard](const HttpRequest&) {
    JsonValue json = shard->service().DescribeJson();
    json.Set("shard", shard->ShardzJson());
    return HttpResponse::Json(200, json.Dump(2) + "\n");
  });

  // Phase 1 of a scatter-gather query: hand the coordinator the source
  // rows of the seed users this shard owns, bit-exact on the wire.
  server->Route("POST", "/gather", [shard](const HttpRequest& request) {
    Result<JsonValue> body = ParseBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    const JsonValue* seeds_v = body.value().Find("seeds");
    if (seeds_v == nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("gather request missing 'seeds'"));
    }
    // The answer grows with the seed count, so bound it like every query
    // path before converting a single id.
    const uint32_t max_seeds = shard->service().max_seeds();
    if (seeds_v->kind() == JsonValue::Kind::kArray &&
        seeds_v->size() > max_seeds) {
      return ErrorResponse(Status::InvalidArgument(
          StrFormat("gather seed set too large: %zu > max %u",
                    seeds_v->size(), max_seeds)));
    }
    Result<std::vector<UserId>> seeds = UserIdsFromJson(*seeds_v, "seeds");
    if (!seeds.ok()) return ErrorResponse(seeds.status());
    if (seeds.value().empty()) {
      return ErrorResponse(Status::InvalidArgument("gather seed set empty"));
    }
    std::vector<UserId> local;
    local.reserve(seeds.value().size());
    for (UserId global : seeds.value()) {
      if (!shard->OwnsUser(global)) {
        return ErrorResponse(Status::NotFound(StrFormat(
            "seed user %u outside shard range [%u,%u)", global,
            shard->info().begin_user, shard->info().end_user)));
      }
      local.push_back(shard->ToLocal(global));
    }
    serve::SeedBlock block =
        serve::GatherSeedBlock(shard->service().table(), local);
    // The wire carries global ids; rows stay in request order.
    block.seeds = std::move(seeds).value();
    return HttpResponse::Json(200, SeedBlockToJson(block).Dump(0) + "\n");
  });

  // Phase 2: scan the local slice against the transported block.
  server->Route("POST", "/topk", [shard](const HttpRequest& request) {
    Result<JsonValue> body = ParseBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    Result<ShardTopKRequest> parsed = ShardTopKRequestFromJson(body.value());
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    ShardTopKRequest& wire_request = parsed.value();

    serve::BlockTopKRequest scan;
    scan.k = wire_request.k;
    scan.aggregation = wire_request.aggregation;
    scan.deadline_us = wire_request.deadline_us;
    scan.exclude.reserve(wire_request.exclude.size());
    for (UserId global : wire_request.exclude) {
      if (shard->OwnsUser(global)) {
        scan.exclude.push_back(shard->ToLocal(global));
      }
    }
    Result<serve::TopKResult> result =
        shard->service().TopKWithBlock(wire_request.block, scan);
    if (!result.ok()) return ErrorResponse(result.status());

    ShardTopKResponse response;
    response.shard_index = shard->info().shard_index;
    response.scanned = result.value().scanned;
    response.entries = std::move(result.value().entries);
    for (serve::TopKEntry& entry : response.entries) {
      entry.user = shard->ToGlobal(entry.user);
    }
    return HttpResponse::Json(
        200, ShardTopKResponseToJson(response).Dump(0) + "\n");
  });

  server->Route("POST", "/score", [shard](const HttpRequest& request) {
    Result<JsonValue> body = ParseBody(request);
    if (!body.ok()) return ErrorResponse(body.status());
    const JsonValue* candidate_v = body.value().Find("candidate");
    if (candidate_v == nullptr ||
        candidate_v->kind() != JsonValue::Kind::kInt ||
        candidate_v->AsInt() < 0 ||
        candidate_v->AsInt() > static_cast<int64_t>(UINT32_MAX)) {
      return ErrorResponse(
          Status::InvalidArgument("score request missing 'candidate'"));
    }
    const UserId global = static_cast<UserId>(candidate_v->AsInt());
    if (!shard->OwnsUser(global)) {
      return ErrorResponse(Status::NotFound(StrFormat(
          "candidate %u outside shard range [%u,%u)", global,
          shard->info().begin_user, shard->info().end_user)));
    }
    std::optional<Aggregation> aggregation;
    if (const JsonValue* agg = body.value().Find("aggregation")) {
      if (agg->kind() != JsonValue::Kind::kString) {
        return ErrorResponse(
            Status::InvalidArgument("aggregation must be a string"));
      }
      Result<Aggregation> parsed_agg = ParseAggregation(agg->AsString());
      if (!parsed_agg.ok()) return ErrorResponse(parsed_agg.status());
      aggregation = parsed_agg.value();
    }
    const JsonValue* block_v = body.value().Find("block");
    if (block_v == nullptr) {
      return ErrorResponse(
          Status::InvalidArgument("score request missing 'block'"));
    }
    Result<serve::SeedBlock> block = SeedBlockFromJson(*block_v);
    if (!block.ok()) return ErrorResponse(block.status());
    Result<double> score = shard->service().ScoreWithBlock(
        block.value(), shard->ToLocal(global), aggregation);
    if (!score.ok()) return ErrorResponse(score.status());
    JsonValue json = JsonValue::Object();
    json.Set("candidate", global);
    json.Set("score", score.value());
    json.Set("shard", shard->info().shard_index);
    return HttpResponse::Json(200, json.Dump(0) + "\n");
  });
}

}  // namespace shard
}  // namespace inf2vec
