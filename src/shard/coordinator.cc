#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "serve/serve_endpoints.h"
#include "shard/shard_service.h"
#include "shard/wire.h"
#include "util/string_util.h"

namespace inf2vec {
namespace shard {
namespace {

using obs::HttpRequest;
using obs::HttpResponse;
using obs::JsonValue;
using serve::BetterThan;
using serve::ErrorResponse;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Collects spans completed on a fan-out thread so they can be forwarded
/// into the request thread's trace after join (RequestScope's sink is
/// not thread-safe, so fan-out threads must not write to it directly).
class SpanCapture : public obs::TraceSink {
 public:
  void OnSpanEnd(const obs::TraceEvent& event) override {
    events_.push_back(event);
  }

  /// Re-emits captured spans into `sink`, reparenting thread-root spans
  /// under `parent_id` so /tracez shows them as children of the request.
  void ForwardTo(obs::TraceSink* sink, uint64_t parent_id) {
    for (obs::TraceEvent event : events_) {
      if (event.parent_id == 0) event.parent_id = parent_id;
      sink->OnSpanEnd(event);
    }
  }

 private:
  std::vector<obs::TraceEvent> events_;
};

/// Runs `call(i)` for every i in [0, n) on its own thread, joins them,
/// then forwards the spans each recorded into the current (request)
/// thread's sink as children of the active span.
template <typename CallFn>
void FanOut(size_t n, const CallFn& call) {
  std::vector<SpanCapture> captures(n);
  {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      threads.emplace_back([&captures, &call, i]() {
        obs::ScopedTraceSink sink_guard(&captures[i]);
        call(i);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  obs::TraceSink* sink = obs::ThreadTraceSink();
  if (sink == nullptr) return;
  obs::TraceSpan* current = obs::TraceSpan::Current();
  const uint64_t parent_id = current != nullptr ? current->span_id() : 0;
  for (SpanCapture& capture : captures) {
    capture.ForwardTo(sink, parent_id);
  }
}

/// Shared fields of every degraded / partial body.
void SetDegradedFields(JsonValue* body, const CoordTopKResult& result) {
  body->Set("degraded", result.degraded);
  JsonValue missing = JsonValue::Array();
  for (uint32_t index : result.shards_missing) missing.Append(index);
  body->Set("shards_missing", std::move(missing));
}

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= address.size()) {
    return Status::InvalidArgument("backend address must be host:port: " +
                                   address);
  }
  uint32_t parsed = 0;
  const Status port_ok = ParseUint32(address.substr(colon + 1), &parsed);
  if (!port_ok.ok() || parsed == 0 || parsed > 65535) {
    return Status::InvalidArgument("bad backend port in: " + address);
  }
  *host = address.substr(0, colon);
  *port = static_cast<uint16_t>(parsed);
  return Status::OK();
}

}  // namespace

ShardCoordinator::ShardCoordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  obs::MetricsRegistry* registry = options_.registry;
  shard_timeouts_ = registry->GetCounter("serve.shard_timeouts");
  shard_errors_ = registry->GetCounter("serve.shard_errors");
  degraded_responses_ = registry->GetCounter("serve.degraded_responses");
}

uint32_t ShardCoordinator::num_shards() const {
  return static_cast<uint32_t>(backends_.size());
}

Result<ShardCoordinator> ShardCoordinator::Connect(
    CoordinatorOptions options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("coordinator needs at least one backend");
  }
  ShardCoordinator coordinator(std::move(options));
  const CoordinatorOptions& opts = coordinator.options_;

  for (const std::string& address : opts.backends) {
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    INF2VEC_RETURN_IF_ERROR(
        ParseHostPort(address, &backend->host, &backend->port));

    obs::HttpClient client(backend->port, backend->host);
    obs::HttpClientResponse response;
    if (!client.Get("/shardz", &response, opts.connect_deadline_ms) ||
        response.status != 200) {
      return Status::FailedPrecondition(
          "shard backend unreachable at startup: " + address +
          (response.status != 0
               ? StrFormat(" (HTTP %d)", response.status)
               : ""));
    }
    Result<JsonValue> shardz = obs::ParseJson(response.body);
    if (!shardz.ok()) {
      return Status::Internal("malformed /shardz from " + address + ": " +
                              shardz.status().message());
    }
    const JsonValue& json = shardz.value();
    const JsonValue* index = json.Find("shard_index");
    const JsonValue* num = json.Find("num_shards");
    const JsonValue* begin = json.Find("begin_user");
    const JsonValue* end = json.Find("end_user");
    const JsonValue* total = json.Find("total_users");
    const JsonValue* hash = json.Find("model_hash");
    const JsonValue* dim = json.Find("dim");
    const JsonValue* quantize = json.Find("quantize");
    // Kind-check before reading: JsonValue::AsInt/AsString abort on the
    // wrong kind, and a backend's answer is outside input.
    const auto is = [](const JsonValue* v, JsonValue::Kind kind) {
      return v != nullptr && v->kind() == kind;
    };
    constexpr JsonValue::Kind kInt = JsonValue::Kind::kInt;
    constexpr JsonValue::Kind kString = JsonValue::Kind::kString;
    serve::QuantMode backend_mode = serve::QuantMode::kNone;
    if (!is(index, kInt) || !is(num, kInt) || !is(begin, kInt) ||
        !is(end, kInt) || !is(total, kInt) || !is(dim, kInt) ||
        !is(hash, kString) || !is(quantize, kString) ||
        !serve::ParseQuantModeName(quantize->AsString(), &backend_mode)) {
      return Status::Internal("incomplete /shardz from " + address);
    }
    backend->shard_index = static_cast<uint32_t>(index->AsInt());
    backend->begin_user = static_cast<uint32_t>(begin->AsInt());
    backend->end_user = static_cast<uint32_t>(end->AsInt());

    const uint32_t backend_total = static_cast<uint32_t>(total->AsInt());
    const uint32_t backend_dim = static_cast<uint32_t>(dim->AsInt());
    if (coordinator.backends_.empty()) {
      coordinator.total_users_ = backend_total;
      coordinator.dim_ = backend_dim;
      coordinator.mode_ = backend_mode;
      coordinator.model_hash_ = hash->AsString();
    } else if (coordinator.model_hash_ != hash->AsString()) {
      return Status::FailedPrecondition(StrFormat(
          "shard %s was split from a different model (hash %s != %s)",
          address.c_str(), hash->AsString().c_str(),
          coordinator.model_hash_.c_str()));
    } else if (coordinator.total_users_ != backend_total ||
               coordinator.dim_ != backend_dim ||
               coordinator.mode_ != backend_mode) {
      return Status::FailedPrecondition(
          "shard " + address +
          " disagrees on total_users/dim/quantize with its peers");
    }
    if (static_cast<size_t>(num->AsInt()) != opts.backends.size()) {
      return Status::FailedPrecondition(StrFormat(
          "shard %s expects %lld shards but %zu backends were configured",
          address.c_str(), static_cast<long long>(num->AsInt()),
          opts.backends.size()));
    }
    coordinator.backends_.push_back(std::move(backend));
  }

  std::sort(coordinator.backends_.begin(), coordinator.backends_.end(),
            [](const std::unique_ptr<Backend>& a,
               const std::unique_ptr<Backend>& b) {
              return a->begin_user < b->begin_user;
            });
  uint32_t expected_begin = 0;
  for (size_t i = 0; i < coordinator.backends_.size(); ++i) {
    const Backend& backend = *coordinator.backends_[i];
    if (backend.begin_user != expected_begin ||
        backend.end_user <= backend.begin_user) {
      return Status::FailedPrecondition(StrFormat(
          "shard ranges do not tile the user space: %s covers [%u,%u), "
          "expected begin %u",
          backend.address.c_str(), backend.begin_user, backend.end_user,
          expected_begin));
    }
    expected_begin = backend.end_user;
  }
  if (expected_begin != coordinator.total_users_) {
    return Status::FailedPrecondition(
        StrFormat("shard ranges stop at %u of %u users", expected_begin,
                  coordinator.total_users_));
  }
  return coordinator;
}

std::unique_ptr<obs::HttpClient> ShardCoordinator::AcquireClient(
    const Backend& backend) const {
  {
    std::lock_guard<std::mutex> lock(backend.pool_mu);
    if (!backend.pool.empty()) {
      std::unique_ptr<obs::HttpClient> client =
          std::move(backend.pool.back());
      backend.pool.pop_back();
      return client;
    }
  }
  return std::make_unique<obs::HttpClient>(backend.port, backend.host);
}

void ShardCoordinator::ReleaseClient(
    const Backend& backend, std::unique_ptr<obs::HttpClient> client) const {
  std::lock_guard<std::mutex> lock(backend.pool_mu);
  if (backend.pool.size() < 16) backend.pool.push_back(std::move(client));
}

Result<obs::JsonValue> ShardCoordinator::CallBackend(
    const Backend& backend, const std::string& target,
    const std::string& body, uint64_t deadline_ms) const {
  const uint64_t start_ms = NowMs();
  const std::string endpoint = "shard:" + backend.address + target;
  obs::RpczRegistry::Endpoint* rpcz =
      options_.rpcz != nullptr ? options_.rpcz->Begin(endpoint) : nullptr;

  obs::TraceSpan span("shard_call", "shard");
  span.SetAttr("backend", backend.address);
  span.SetAttr("target", target);
  span.SetAttr("shard_index", static_cast<uint64_t>(backend.shard_index));

  std::unique_ptr<obs::HttpClient> client = AcquireClient(backend);
  obs::HttpClientResponse response;
  const bool transported =
      client->Post(target, body, &response, deadline_ms);
  const uint64_t elapsed_ms = NowMs() - start_ms;

  const auto finish = [&](int status) {
    span.SetAttr("status", static_cast<uint64_t>(status));
    if (rpcz != nullptr) {
      options_.rpcz->End(rpcz, status, elapsed_ms * 1000);
    }
  };

  if (!transported) {
    finish(0);
    // A deadline-bounded client that failed after its budget elapsed
    // timed out; anything faster is a hard transport error (refused,
    // reset). The distinction drives separate alerting signals.
    const bool timed_out = elapsed_ms + 1 >= deadline_ms;
    if (obs::MetricsEnabled()) {
      (timed_out ? shard_timeouts_ : shard_errors_)->Increment();
    }
    return timed_out
               ? Status::DeadlineExceeded("shard " + backend.address +
                                          " missed its deadline")
               : Status::Internal("shard " + backend.address +
                                  " transport failure");
  }
  finish(response.status);
  if (response.status != 200) {
    if (obs::MetricsEnabled()) {
      (response.status == 504 ? shard_timeouts_ : shard_errors_)
          ->Increment();
    }
    return Status::Internal(StrFormat("shard %s answered HTTP %d",
                                      backend.address.c_str(),
                                      response.status));
  }
  ReleaseClient(backend, std::move(client));
  Result<JsonValue> parsed = obs::ParseJson(response.body);
  if (!parsed.ok()) {
    if (obs::MetricsEnabled()) shard_errors_->Increment();
    return Status::Internal("malformed response from " + backend.address +
                            ": " + parsed.status().message());
  }
  return parsed;
}

const ShardCoordinator::Backend& ShardCoordinator::OwnerOf(
    UserId user) const {
  // Ranges are sorted and tile the id space: first backend whose end is
  // past the id owns it.
  for (const std::unique_ptr<Backend>& backend : backends_) {
    if (user < backend->end_user) return *backend;
  }
  return *backends_.back();
}

uint64_t ShardCoordinator::CallDeadlineMs(uint64_t deadline_us) const {
  // The configured shard deadline, clipped to the request's own budget
  // when one was supplied.
  if (deadline_us == 0) return options_.shard_deadline_ms;
  return std::min<uint64_t>(options_.shard_deadline_ms,
                            std::max<uint64_t>(1, deadline_us / 1000));
}

Result<serve::SeedBlock> ShardCoordinator::GatherBlock(
    const std::vector<UserId>& seeds, uint64_t deadline_ms,
    std::vector<uint32_t>* missing) const {
  obs::TraceSpan span("gather", "shard");
  // Positions (not deduplicated ids): the transported block must keep
  // one row per seed occurrence in query order, exactly like
  // GatherSeedBlock on a single node.
  std::map<const Backend*, std::vector<size_t>> by_owner;
  for (size_t i = 0; i < seeds.size(); ++i) {
    by_owner[&OwnerOf(seeds[i])].push_back(i);
  }
  span.SetAttr("owners", static_cast<uint64_t>(by_owner.size()));

  struct OwnerFetch {
    const Backend* backend = nullptr;
    std::vector<size_t>* positions = nullptr;
    Result<JsonValue> response{Status::Internal("not run")};
  };
  std::vector<OwnerFetch> fetches(by_owner.size());
  {
    size_t i = 0;
    for (auto& [backend, positions] : by_owner) {
      fetches[i].backend = backend;
      fetches[i].positions = &positions;
      ++i;
    }
  }

  FanOut(fetches.size(), [&](size_t i) {
    OwnerFetch& fetch = fetches[i];
    JsonValue body = JsonValue::Object();
    JsonValue ids = JsonValue::Array();
    for (size_t position : *fetch.positions) ids.Append(seeds[position]);
    body.Set("seeds", std::move(ids));
    fetch.response =
        CallBackend(*fetch.backend, "/gather", body.Dump(0), deadline_ms);
  });

  // Assemble the full block at kernel strides, rows in seed order —
  // byte-identical to what GatherSeedBlock would build on one node.
  serve::SeedBlock block = serve::SeedBlock::Shaped(mode_, dim_, seeds);
  for (OwnerFetch& fetch : fetches) {
    if (!fetch.response.ok()) {
      missing->push_back(fetch.backend->shard_index);
      continue;
    }
    Result<serve::SeedBlock> part = SeedBlockFromJson(fetch.response.value());
    if (!part.ok() || part.value().num_seeds() != fetch.positions->size() ||
        part.value().dim != dim_ || part.value().mode() != mode_) {
      missing->push_back(fetch.backend->shard_index);
      if (obs::MetricsEnabled()) shard_errors_->Increment();
      continue;
    }
    for (size_t j = 0; j < fetch.positions->size(); ++j) {
      block.CopySeed((*fetch.positions)[j], part.value(), j);
    }
  }
  if (!missing->empty()) {
    std::sort(missing->begin(), missing->end());
    return Status::FailedPrecondition(
        "seed rows unavailable: gather owner shard(s) unreachable");
  }
  return block;
}

Result<CoordTopKResult> ShardCoordinator::TopK(
    const CoordTopKRequest& request) const {
  INF2VEC_RETURN_IF_ERROR(serve::ValidateK(request.k, options_.max_k));
  INF2VEC_RETURN_IF_ERROR(
      serve::ValidateSeedSet(request.seeds, options_.max_seeds, total_users_));
  const uint64_t call_deadline_ms = CallDeadlineMs(request.deadline_us);

  CoordTopKResult result;
  Result<serve::SeedBlock> block =
      GatherBlock(request.seeds, call_deadline_ms, &result.shards_missing);
  if (!block.ok()) {
    result.degraded = true;
    result.gather_failed = true;
    if (obs::MetricsEnabled()) degraded_responses_->Increment();
    return result;
  }

  ShardTopKRequest scatter;
  scatter.k = request.k;
  scatter.aggregation = request.aggregation;
  // Forward the transport budget as the shard-side scan deadline so a
  // shard never keeps scanning for a response nobody is waiting for.
  scatter.deadline_us = call_deadline_ms * 1000;
  if (!request.include_seeds) scatter.exclude = request.seeds;
  scatter.block = std::move(block).value();
  const std::string scatter_body = ShardTopKRequestToJson(scatter).Dump(0);

  struct ShardCall {
    const Backend* backend = nullptr;
    Result<JsonValue> response{Status::Internal("not run")};
  };
  std::vector<ShardCall> calls(backends_.size());
  {
    obs::TraceSpan span("scatter", "shard");
    span.SetAttr("backends", static_cast<uint64_t>(backends_.size()));
    FanOut(calls.size(), [&](size_t i) {
      calls[i].backend = backends_[i].get();
      calls[i].response = CallBackend(*calls[i].backend, "/topk",
                                      scatter_body, call_deadline_ms);
    });
  }

  std::vector<serve::TopKEntry> merged;
  merged.reserve(backends_.size() * request.k);
  for (ShardCall& call : calls) {
    if (!call.response.ok()) {
      result.shards_missing.push_back(call.backend->shard_index);
      continue;
    }
    Result<ShardTopKResponse> parsed =
        ShardTopKResponseFromJson(call.response.value());
    if (!parsed.ok() ||
        parsed.value().shard_index != call.backend->shard_index) {
      result.shards_missing.push_back(call.backend->shard_index);
      if (obs::MetricsEnabled()) shard_errors_->Increment();
      continue;
    }
    result.scanned += parsed.value().scanned;
    for (const serve::TopKEntry& entry : parsed.value().entries) {
      merged.push_back(entry);
    }
  }

  {
    // serve's own ranking order: global ids are unique, so the order is
    // total and the merged sort equals the single-node ranking.
    obs::TraceSpan span("merge", "shard");
    std::sort(merged.begin(), merged.end(), BetterThan);
    if (merged.size() > request.k) merged.resize(request.k);
    result.entries = std::move(merged);
  }
  std::sort(result.shards_missing.begin(), result.shards_missing.end());
  result.degraded = !result.shards_missing.empty();
  if (result.degraded && obs::MetricsEnabled()) {
    degraded_responses_->Increment();
  }
  return result;
}

Result<CoordScoreResult> ShardCoordinator::Score(
    UserId candidate, const std::vector<UserId>& seeds,
    const std::optional<Aggregation>& aggregation,
    uint64_t deadline_us) const {
  if (candidate >= total_users_) {
    return Status::NotFound("unknown candidate user " +
                            std::to_string(candidate));
  }
  INF2VEC_RETURN_IF_ERROR(
      serve::ValidateSeedSet(seeds, options_.max_seeds, total_users_));
  const uint64_t call_deadline_ms = CallDeadlineMs(deadline_us);

  std::vector<uint32_t> missing;
  Result<serve::SeedBlock> block =
      GatherBlock(seeds, call_deadline_ms, &missing);
  if (!block.ok()) {
    return Status::FailedPrecondition(
        StrFormat("cannot score: %zu gather owner shard(s) unreachable",
                  missing.size()));
  }

  const Backend& owner = OwnerOf(candidate);
  JsonValue body = JsonValue::Object();
  body.Set("candidate", candidate);
  if (aggregation.has_value()) {
    body.Set("aggregation", AggregationName(*aggregation));
  }
  body.Set("block", SeedBlockToJson(block.value()));
  Result<JsonValue> response =
      CallBackend(owner, "/score", body.Dump(0), call_deadline_ms);
  if (!response.ok()) {
    return Status::FailedPrecondition("owner shard " + owner.address +
                                      " unavailable: " +
                                      response.status().message());
  }
  const JsonValue* score = response.value().Find("score");
  if (score == nullptr || !score->is_number()) {
    return Status::Internal("malformed score response from " +
                            owner.address);
  }
  CoordScoreResult result;
  result.score = score->AsDouble();
  result.shard_index = owner.shard_index;
  return result;
}

obs::JsonValue ShardCoordinator::DescribeJson() const {
  JsonValue json = JsonValue::Object();
  json.Set("role", "coordinator");
  json.Set("num_shards", num_shards());
  json.Set("total_users", total_users_);
  json.Set("dim", dim_);
  json.Set("quantize", serve::QuantModeName(mode_));
  json.Set("model_hash", model_hash_);
  json.Set("shard_deadline_ms", options_.shard_deadline_ms);
  JsonValue backends = JsonValue::Array();
  for (const std::unique_ptr<Backend>& backend : backends_) {
    JsonValue row = JsonValue::Object();
    row.Set("address", backend->address);
    row.Set("shard_index", backend->shard_index);
    row.Set("begin_user", backend->begin_user);
    row.Set("end_user", backend->end_user);
    backends.Append(std::move(row));
  }
  json.Set("backends", std::move(backends));
  return json;
}

void RegisterCoordinatorEndpoints(obs::StatsServer* server,
                                  const ShardCoordinator* coordinator) {
  server->Route("GET", "/shardz", [coordinator](const HttpRequest&) {
    return HttpResponse::Json(200, coordinator->DescribeJson().Dump(2) + "\n");
  });

  server->Route("GET", "/modelz", [coordinator](const HttpRequest&) {
    return HttpResponse::Json(200, coordinator->DescribeJson().Dump(2) + "\n");
  });

  server->Route("GET", "/topk", [coordinator](const HttpRequest& request) {
    CoordTopKRequest query;
    const Status parsed = serve::ParseTopKQuery(request, &query);
    if (!parsed.ok()) return ErrorResponse(parsed);

    if (obs::TraceSpan* span = obs::TraceSpan::Current()) {
      span->SetAttr("seed_count", static_cast<uint64_t>(query.seeds.size()));
      span->SetAttr("k", static_cast<uint64_t>(query.k));
      span->SetAttr("num_shards",
                    static_cast<uint64_t>(coordinator->num_shards()));
    }

    Result<CoordTopKResult> result = coordinator->TopK(query);
    if (!result.ok()) return ErrorResponse(result.status());
    const CoordTopKResult& topk = result.value();

    if (obs::TraceSpan* span = obs::TraceSpan::Current()) {
      span->SetAttr("degraded", topk.degraded);
      span->SetAttr("shards_missing",
                    static_cast<uint64_t>(topk.shards_missing.size()));
    }

    // Nothing scannable: gather owner lost, or every shard missing.
    if (topk.gather_failed ||
        topk.shards_missing.size() == coordinator->num_shards()) {
      JsonValue body = JsonValue::Object();
      body.Set("error", "no shard could answer (see shards_missing)");
      body.Set("code", "SHARDS_UNAVAILABLE");
      SetDegradedFields(&body, topk);
      HttpResponse response = HttpResponse::Json(503, body.Dump(0) + "\n");
      response.extra_headers.emplace_back("Retry-After", "1");
      return response;
    }

    JsonValue body = JsonValue::Object();
    body.Set("k", query.k);
    body.Set("scanned", topk.scanned);
    SetDegradedFields(&body, topk);
    body.Set("results", serve::TopKEntriesJson(topk.entries));
    // Partial results announce themselves with 206 so clients and load
    // balancers can tell a full ranking from a shard-loss ranking.
    return HttpResponse::Json(topk.degraded ? 206 : 200,
                              body.Dump(0) + "\n");
  });

  server->Route("GET", "/score", [coordinator](const HttpRequest& request) {
    serve::ScoreRequest query;
    Status parsed =
        serve::ParseRequiredUint32(request, "candidate", &query.candidate);
    if (parsed.ok()) parsed = serve::ParseCommonQuery(request, &query);
    if (!parsed.ok()) return ErrorResponse(parsed);

    Result<CoordScoreResult> result = coordinator->Score(
        query.candidate, query.seeds, query.aggregation, query.deadline_us);
    if (!result.ok()) return ErrorResponse(result.status());
    JsonValue body = JsonValue::Object();
    body.Set("candidate", query.candidate);
    body.Set("score", result.value().score);
    body.Set("shard", result.value().shard_index);
    return HttpResponse::Json(200, body.Dump(0) + "\n");
  });
}

}  // namespace shard
}  // namespace inf2vec
