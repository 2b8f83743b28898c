#include "serve/serve_endpoints.h"

#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "kernels/kernels.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/topk_batcher.h"
#include "util/string_util.h"

namespace inf2vec {
namespace serve {
namespace {

using obs::HttpRequest;
using obs::HttpResponse;
using obs::JsonValue;

/// Generation stamp for hot-swap deployments; static single-model serving
/// passes nullopt and emits no field.
using GenerationTag = std::optional<uint64_t>;

/// Stamps the request-level attributes (seed-set size, kernel ISA, quant
/// mode, generation) onto the enclosing request's root span — a no-op
/// unless request observability has a scope open on this thread.
void AnnotateRootSpan(const InfluenceService& service,
                      const GenerationTag& generation, size_t seed_count) {
  obs::TraceSpan* root = obs::TraceSpan::Current();
  if (root == nullptr) return;
  root->SetAttr("seed_count", static_cast<uint64_t>(seed_count));
  root->SetAttr("kernel_isa", kernels::IsaName(kernels::ActiveIsa()));
  root->SetAttr("quant_mode", QuantModeName(service.quant_mode()));
  if (generation.has_value()) root->SetAttr("generation", *generation);
}

void SetGeneration(JsonValue* body, const GenerationTag& generation) {
  if (generation.has_value()) body->Set("generation", *generation);
}

HttpResponse HandleScore(const InfluenceService& service,
                         const GenerationTag& generation,
                         const HttpRequest& request) {
  ScoreRequest query;
  {
    obs::TraceSpan span("parse", "serve");
    const Status candidate =
        ParseRequiredUint32(request, "candidate", &query.candidate);
    if (!candidate.ok()) return ErrorResponse(candidate);
    const Status common = ParseCommonQuery(request, &query);
    if (!common.ok()) return ErrorResponse(common);
  }
  AnnotateRootSpan(service, generation, query.seeds.size());

  const Result<ScoreResult> result = service.ScoreActivation(query);
  if (!result.ok()) return ErrorResponse(result.status());

  obs::TraceSpan span("serialize", "serve");
  JsonValue body = JsonValue::Object();
  body.Set("candidate", query.candidate);
  body.Set("score", result.value().score);
  body.Set("cache_hit", result.value().cache_hit);
  SetGeneration(&body, generation);
  return HttpResponse::Json(200, body.Dump(0));
}

/// Parses the POST /score body — a true batch through ScoreBatch:
///
///   {"queries": [{"candidate": U, "seeds": [A, B]}, ...],
///    "aggregation": "Ave", "deadline_us": N}
///
/// (aggregation and deadline_us optional, shared by the whole batch).
Status ParseBatchBody(const std::string& body, BatchScoreRequest* batch) {
  Result<JsonValue> parsed = obs::ParseJson(body);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad JSON body: " +
                                   parsed.status().message());
  }
  const JsonValue& root = parsed.value();
  if (root.kind() != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("body must be a JSON object");
  }
  const JsonValue* queries = root.Find("queries");
  if (queries == nullptr || queries->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("body must carry a \"queries\" array");
  }
  batch->items.reserve(queries->size());
  for (size_t i = 0; i < queries->items().size(); ++i) {
    const JsonValue& entry = queries->items()[i];
    const std::string at = "queries[" + std::to_string(i) + "]";
    if (entry.kind() != JsonValue::Kind::kObject) {
      return Status::InvalidArgument(at + " must be an object");
    }
    BatchItem item;
    const JsonValue* candidate = entry.Find("candidate");
    if (candidate == nullptr ||
        candidate->kind() != JsonValue::Kind::kInt ||
        candidate->AsInt() < 0) {
      return Status::InvalidArgument(at +
                                     ".candidate must be a non-negative id");
    }
    item.candidate = static_cast<UserId>(candidate->AsInt());
    const JsonValue* seeds = entry.Find("seeds");
    if (seeds == nullptr || seeds->kind() != JsonValue::Kind::kArray) {
      return Status::InvalidArgument(at + ".seeds must be an array of ids");
    }
    item.seeds.reserve(seeds->size());
    for (const JsonValue& seed : seeds->items()) {
      if (seed.kind() != JsonValue::Kind::kInt || seed.AsInt() < 0) {
        return Status::InvalidArgument(at + ".seeds must be non-negative ids");
      }
      item.seeds.push_back(static_cast<UserId>(seed.AsInt()));
    }
    batch->items.push_back(std::move(item));
  }
  const JsonValue* aggregation = root.Find("aggregation");
  if (aggregation != nullptr) {
    if (aggregation->kind() != JsonValue::Kind::kString) {
      return Status::InvalidArgument("aggregation must be a string");
    }
    Result<Aggregation> kind = ParseAggregation(aggregation->AsString());
    if (!kind.ok()) {
      return Status::InvalidArgument("bad aggregation '" +
                                     aggregation->AsString() +
                                     "': " + kind.status().message());
    }
    batch->aggregation = kind.value();
  }
  const JsonValue* deadline = root.Find("deadline_us");
  if (deadline != nullptr) {
    if (deadline->kind() != JsonValue::Kind::kInt || deadline->AsInt() < 0) {
      return Status::InvalidArgument("deadline_us must be a non-negative int");
    }
    batch->deadline_us = static_cast<uint64_t>(deadline->AsInt());
  }
  return Status::OK();
}

HttpResponse HandleScoreBatch(const InfluenceService& service,
                              const GenerationTag& generation,
                              const HttpRequest& request) {
  BatchScoreRequest batch;
  {
    obs::TraceSpan span("parse", "serve");
    const Status parsed = ParseBatchBody(request.body, &batch);
    if (!parsed.ok()) return ErrorResponse(parsed);
  }
  size_t seed_count = 0;
  for (const BatchItem& item : batch.items) seed_count += item.seeds.size();
  AnnotateRootSpan(service, generation, seed_count);
  obs::TraceSpan* root = obs::TraceSpan::Current();
  if (root != nullptr) {
    root->SetAttr("batch_items", static_cast<uint64_t>(batch.items.size()));
  }

  const Result<BatchScoreResult> result = service.ScoreBatch(batch);
  if (!result.ok()) return ErrorResponse(result.status());

  obs::TraceSpan span("serialize", "serve");
  JsonValue body = JsonValue::Object();
  body.Set("count", static_cast<uint64_t>(result.value().scores.size()));
  body.Set("cache_hits", result.value().cache_hits);
  JsonValue results = JsonValue::Array();
  for (size_t i = 0; i < result.value().scores.size(); ++i) {
    JsonValue row = JsonValue::Object();
    row.Set("candidate", batch.items[i].candidate);
    row.Set("score", result.value().scores[i]);
    results.Append(std::move(row));
  }
  body.Set("results", std::move(results));
  SetGeneration(&body, generation);
  return HttpResponse::Json(200, body.Dump(0));
}

HttpResponse HandleTopK(const InfluenceService& service,
                        const GenerationTag& generation, TopKBatcher* batcher,
                        const HttpRequest& request) {
  TopKRequest query;
  {
    obs::TraceSpan span("parse", "serve");
    const Status parsed = ParseTopKQuery(request, &query);
    if (!parsed.ok()) return ErrorResponse(parsed);
  }
  AnnotateRootSpan(service, generation, query.seeds.size());

  // Concurrent requests for the same (generation, seed set) coalesce
  // into one cache-blocked scan; only the leader runs service.TopK.
  const Result<TopKResult> result = batcher->Execute(
      generation.value_or(0), query,
      [&service](const TopKRequest& scan) { return service.TopK(scan); });
  if (!result.ok()) return ErrorResponse(result.status());

  obs::TraceSpan span("serialize", "serve");
  span.SetAttr("results", static_cast<uint64_t>(result.value().entries.size()));
  JsonValue body = JsonValue::Object();
  body.Set("k", query.k);
  body.Set("scanned", result.value().scanned);
  body.Set("cache_hit", result.value().cache_hit);
  body.Set("coalesced", result.value().coalesced);
  body.Set("results", TopKEntriesJson(result.value().entries));
  SetGeneration(&body, generation);
  return HttpResponse::Json(200, body.Dump(0));
}

HttpResponse ModelGoneResponse() {
  // Only reachable if traffic arrives before the initial load finished;
  // RegisterServeEndpoints documents that as a caller bug, but a typed
  // 500 beats dereferencing null.
  return ErrorResponse(Status::Internal("no model loaded yet"));
}

/// Soft-budget load shedding for the query endpoints (`serve
/// --mem-budget-bytes`): when accounted bytes + headroom sit over the
/// budget, /score and /topk answer 503 instead of queueing work on a
/// process the kernel is about to OOM-kill. Returns true (and fills
/// `*response`) when the request must be shed. The check is two relaxed
/// loads — free when no budget is configured.
bool ShedOverBudget(HttpResponse* response) {
  if (!obs::OverMemoryBudget()) return false;
  if (obs::MetricsEnabled()) {
    static obs::Counter* pressure =
        obs::MetricsRegistry::Default().GetCounter("serve.mem_pressure");
    pressure->Increment();
  }
  *response = obs::ErrorJson(
      503, "MEM_PRESSURE", "serving over memory budget; request shed (see /memz)");
  // Same backoff hint the 429 OVERLOADED shed sends: pressure clears on
  // the order of a snapshot interval, so "try again in a second".
  response->extra_headers.emplace_back("Retry-After", "1");
  return true;
}

/// The model one request is answered by, pinned for the whole request:
/// `hold` keeps a hot-swapped generation alive until the response is
/// built; `service` is null only before a swapper's first load.
struct PinnedModel {
  std::shared_ptr<const void> hold;
  const InfluenceService* service = nullptr;
  GenerationTag generation;
};

/// GET /score, POST /score and GET /topk over whatever model `pin`
/// resolves per request; each sheds over the memory budget first.
template <typename PinFn>
void RegisterQueryRoutes(obs::StatsServer* server, PinFn pin) {
  const auto route = [server, pin](const char* method, const char* path,
                                   auto handle) {
    server->Route(method, path, [pin, handle](const HttpRequest& request) {
      HttpResponse shed;
      if (ShedOverBudget(&shed)) return shed;
      const PinnedModel model = pin();
      if (model.service == nullptr) return ModelGoneResponse();
      return handle(*model.service, model.generation, request);
    });
  };
  route("GET", "/score", HandleScore);
  route("POST", "/score", HandleScoreBatch);
  // The generation keys the coalescer, so requests racing a hot swap
  // never share a scan across models.
  auto batcher = std::make_shared<TopKBatcher>();
  route("GET", "/topk",
        [batcher](const InfluenceService& service,
                  const GenerationTag& generation,
                  const HttpRequest& request) {
          return HandleTopK(service, generation, batcher.get(), request);
        });
}

}  // namespace

JsonValue TopKEntriesJson(const std::vector<TopKEntry>& entries) {
  JsonValue array = JsonValue::Array();
  for (const TopKEntry& entry : entries) {
    JsonValue row = JsonValue::Object();
    row.Set("user", entry.user);
    row.Set("score", entry.score);
    array.Append(std::move(row));
  }
  return array;
}

HttpResponse ErrorResponse(const Status& status) {
  return obs::ErrorJson(HttpCodeFor(status), StatusCodeName(status.code()),
                        status.message());
}

Result<std::vector<UserId>> ParseSeedList(const HttpRequest& request,
                                          const std::string& key) {
  if (!request.HasQuery(key)) {
    return Status::InvalidArgument("missing required parameter: " + key);
  }
  // Named local: the split fields are views into it.
  const std::string csv = request.QueryOr(key, "");
  std::vector<UserId> seeds;
  for (std::string_view field : SplitString(csv, ',')) {
    uint32_t id = 0;
    const Status parsed = ParseUint32(TrimString(field), &id);
    if (!parsed.ok()) {
      return Status::InvalidArgument("bad " + key + " entry '" +
                                     std::string(field) +
                                     "': " + parsed.message());
    }
    seeds.push_back(id);
  }
  return seeds;
}

Status ParseRequiredUint32(const HttpRequest& request, const std::string& key,
                           uint32_t* out) {
  if (!request.HasQuery(key)) {
    return Status::InvalidArgument("missing required parameter: " + key);
  }
  const std::string raw = request.QueryOr(key, "");
  const Status parsed = ParseUint32(raw, out);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad " + key + " '" + raw + "'");
  }
  return Status::OK();
}

Status ParseOptionalAggregation(const HttpRequest& request,
                                std::optional<Aggregation>* out) {
  if (!request.HasQuery("aggregation")) return Status::OK();
  const std::string name = request.QueryOr("aggregation", "");
  Result<Aggregation> parsed = ParseAggregation(name);
  if (!parsed.ok()) {
    return Status::InvalidArgument("bad aggregation '" + name +
                                   "': " + parsed.status().message());
  }
  *out = parsed.value();
  return Status::OK();
}

int HttpCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kDeadlineExceeded:
      return 504;
    default:
      return 500;
  }
}

void RegisterServeEndpoints(obs::StatsServer* server,
                            const InfluenceService* service) {
  RegisterQueryRoutes(server, [service] {
    return PinnedModel{nullptr, service, std::nullopt};
  });
  server->Route("GET", "/modelz", [service](const HttpRequest&) {
    return HttpResponse::Json(200, service->DescribeJson().Dump(2));
  });
}

void RegisterServeEndpoints(obs::StatsServer* server, ModelSwapper* swapper) {
  RegisterQueryRoutes(server, [swapper] {
    std::shared_ptr<const VersionedService> model = swapper->Acquire();
    if (model == nullptr) return PinnedModel{};
    return PinnedModel{model, &model->service, model->generation};
  });
  server->Route("GET", "/modelz", [swapper](const HttpRequest&) {
    const auto model = swapper->Acquire();
    if (model == nullptr) return ModelGoneResponse();
    JsonValue body = model->service.DescribeJson();
    body.Set("generation", model->generation);
    body.Set("watching", swapper->watching());
    return HttpResponse::Json(200, body.Dump(2));
  });
  server->Route("GET", "/reloadz", [swapper](const HttpRequest&) {
    const Status reloaded = swapper->Reload();
    if (!reloaded.ok()) {
      JsonValue body = JsonValue::Object();
      body.Set("error", reloaded.message());
      body.Set("code", StatusCodeName(reloaded.code()));
      // The previous model keeps serving; say which one.
      body.Set("serving_generation", swapper->generation());
      return HttpResponse::Json(HttpCodeFor(reloaded), body.Dump(0));
    }
    JsonValue body = JsonValue::Object();
    body.Set("status", "reloaded");
    body.Set("generation", swapper->generation());
    body.Set("model", swapper->model_path());
    // The accounted double-resident peak of this swap (0 on the first
    // load — nothing was resident to double).
    body.Set("swap_transient_bytes", swapper->last_swap_transient_bytes());
    return HttpResponse::Json(200, body.Dump(0));
  });
}

}  // namespace serve
}  // namespace inf2vec
