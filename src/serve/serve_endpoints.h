#ifndef INF2VEC_SERVE_SERVE_ENDPOINTS_H_
#define INF2VEC_SERVE_SERVE_ENDPOINTS_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "obs/http_server.h"
#include "serve/influence_service.h"
#include "serve/model_swapper.h"
#include "util/string_util.h"

namespace inf2vec {
namespace serve {

/// Maps a query-path Status to its HTTP code: InvalidArgument -> 400,
/// NotFound -> 404, FailedPrecondition -> 409 (a request the serving
/// state refuses: a foreign seed block, a reload over the memory budget),
/// DeadlineExceeded -> 504, anything else -> 500.
int HttpCodeFor(const Status& status);

/// Ranked entries as the JSON array every /topk answer carries:
/// [{"user": U, "score": S}, ...].
obs::JsonValue TopKEntriesJson(const std::vector<TopKEntry>& entries);

/// Query-path Status in the process-wide error envelope (obs::ErrorJson):
/// the machine code is the StatusCodeName spelling, the HTTP code the
/// HttpCodeFor mapping.
obs::HttpResponse ErrorResponse(const Status& status);

// Query-parameter parsers shared by every plane that answers GET /score
// and /topk (single node and coordinator). Every failure is an
// InvalidArgument naming the offending parameter.

/// "1,5,9" -> {1, 5, 9}; rejects a missing key, empties and non-numeric
/// fields.
Result<std::vector<UserId>> ParseSeedList(const obs::HttpRequest& request,
                                          const std::string& key);

/// Required uint32 parameter.
Status ParseRequiredUint32(const obs::HttpRequest& request,
                           const std::string& key, uint32_t* out);

/// Optional unsigned parameter; missing keeps `*out` unchanged. Rejects
/// negatives and values above T's maximum (no silent wrap).
template <typename T>
Status ParseOptionalUint(const obs::HttpRequest& request,
                         const std::string& key, T* out) {
  if (!request.HasQuery(key)) return Status::OK();
  const std::string raw = request.QueryOr(key, "");
  int64_t value = 0;
  const Status parsed = ParseInt64(raw, &value);
  if (!parsed.ok() || value < 0 ||
      static_cast<uint64_t>(value) > std::numeric_limits<T>::max()) {
    return Status::InvalidArgument("bad " + key + " '" + raw + "'");
  }
  *out = static_cast<T>(value);
  return Status::OK();
}

/// Optional `aggregation` (Ave/Sum/Max/Latest); missing keeps `*out`.
Status ParseOptionalAggregation(const obs::HttpRequest& request,
                                std::optional<Aggregation>* out);

/// The parameters /score and /topk share — required `seeds`, optional
/// `aggregation` and `deadline_us` — into any request struct with those
/// fields.
template <typename RequestT>
Status ParseCommonQuery(const obs::HttpRequest& request, RequestT* query) {
  Result<std::vector<UserId>> seeds = ParseSeedList(request, "seeds");
  if (!seeds.ok()) return seeds.status();
  query->seeds = std::move(seeds).value();
  INF2VEC_RETURN_IF_ERROR(
      ParseOptionalAggregation(request, &query->aggregation));
  return ParseOptionalUint(request, "deadline_us", &query->deadline_us);
}

/// GET /topk: the common parameters plus optional `k` and
/// `include_seeds` ("1" or "true" include the seeds in the ranking).
template <typename RequestT>
Status ParseTopKQuery(const obs::HttpRequest& request, RequestT* query) {
  INF2VEC_RETURN_IF_ERROR(ParseCommonQuery(request, query));
  INF2VEC_RETURN_IF_ERROR(ParseOptionalUint(request, "k", &query->k));
  const std::string include = request.QueryOr("include_seeds", "0");
  query->include_seeds = include == "1" || include == "true";
  return Status::OK();
}

/// Registers the serving endpoints on `server`:
///
///   GET  /score?candidate=U&seeds=A,B,C[&aggregation=Ave][&deadline_us=N]
///   POST /score   {"queries": [{"candidate": U, "seeds": [A, B]}, ...],
///                  "aggregation": "Ave", "deadline_us": N}
///   GET  /topk?seeds=A,B,C[&k=10][&aggregation=Ave][&deadline_us=N]
///             [&include_seeds=1|true]
///   GET  /modelz
///
/// The GET /score form is the single-query alias; the POST body scores
/// the whole batch through InfluenceService::ScoreBatch. Concurrent GET
/// /topk requests for the same seed set coalesce into one scan through a
/// serve::TopKBatcher owned by the registration. Responses are JSON;
/// errors use the process-wide envelope {"error": ..., "code": ...}
/// (obs::ErrorJson) with the mapping above. `service` must outlive the
/// server (queries may arrive until Stop() returns). Handlers run on the
/// server's worker pool — everything they touch is const or internally
/// synchronized.
void RegisterServeEndpoints(obs::StatsServer* server,
                            const InfluenceService* service);

/// Hot-swap variant: the same endpoints plus
///
///   GET /reloadz
///
/// which reloads the model file through `swapper` and reports the new
/// generation (a failed reload returns the error and the still-serving
/// generation — traffic is never interrupted). Every query handler
/// resolves the model once via ModelSwapper::Acquire() and pins that
/// snapshot for the whole request, so responses are internally consistent
/// even when a swap lands mid-request; /score, /topk and /modelz
/// responses carry a "generation" field naming the model that answered.
/// `swapper` must outlive the server and have completed its initial
/// Reload() before traffic arrives.
void RegisterServeEndpoints(obs::StatsServer* server, ModelSwapper* swapper);

}  // namespace serve
}  // namespace inf2vec

#endif  // INF2VEC_SERVE_SERVE_ENDPOINTS_H_
