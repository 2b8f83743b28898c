// Serving endpoints over real HTTP on the epoll server: the POST /score
// batch body, its equivalence with the GET single-query alias, the
// unified error envelope, and /rpcz row-per-request accounting under
// keep-alive connection reuse.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/http_client.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "serve/influence_service.h"
#include "serve/serve_endpoints.h"
#include "util/rng.h"

namespace inf2vec {
namespace serve {
namespace {

using obs::JsonValue;
using obs::ParseJson;

InfluenceService MakeService(uint32_t num_users, uint32_t dim) {
  ModelArtifact artifact;
  artifact.store = EmbeddingStore(num_users, dim);
  Rng rng(23);
  artifact.store.InitUniform(-0.5, 0.5, rng);
  for (UserId u = 0; u < num_users; ++u) {
    artifact.store.mutable_source_bias(u) = rng.UniformDouble(-0.2, 0.2);
    artifact.store.mutable_target_bias(u) = rng.UniformDouble(-0.2, 0.2);
  }
  artifact.metadata.aggregation = "Ave";
  artifact.metadata.dim = dim;
  Result<InfluenceService> service =
      InfluenceService::FromArtifact(std::move(artifact), {});
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

using HttpResult = obs::HttpClientResponse;

/// One-shot request with method + body support.
HttpResult Call(uint16_t port, const std::string& method,
                const std::string& target, const std::string& body = "") {
  obs::HttpClient client(port);
  HttpResult result;
  client.Call(method, target, body, &result, /*deadline_ms=*/5000);
  return result;
}

class ServeHttpTest : public ::testing::Test {
 protected:
  ServeHttpTest() : service_(MakeService(64, 8)), server_({}, &registry_) {
    RegisterServeEndpoints(&server_, &service_);
    EXPECT_TRUE(server_.Start().ok());
  }
  ~ServeHttpTest() override { server_.Stop(); }

  obs::MetricsRegistry registry_;
  InfluenceService service_;
  obs::StatsServer server_;
};

TEST_F(ServeHttpTest, PostScoreBatchMatchesGetAliasExactly) {
  const std::string batch =
      "{\"queries\": ["
      "{\"candidate\": 7, \"seeds\": [1, 2, 3]},"
      "{\"candidate\": 11, \"seeds\": [4, 5]},"
      "{\"candidate\": 30, \"seeds\": [1, 2, 3]}]}";
  const HttpResult post = Call(server_.port(), "POST", "/score", batch);
  ASSERT_EQ(post.status, 200) << post.body;
  Result<JsonValue> doc = ParseJson(post.body);
  ASSERT_TRUE(doc.ok()) << post.body;
  EXPECT_EQ(doc.value().Find("count")->AsInt(), 3);
  const JsonValue* results = doc.value().Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), 3u);

  // Each batch row must equal the GET single-query alias bit for bit
  // (both run the same Eq. 7 arithmetic on the same table).
  const std::vector<std::pair<std::string, std::string>> singles = {
      {"7", "1,2,3"}, {"11", "4,5"}, {"30", "1,2,3"}};
  for (size_t i = 0; i < singles.size(); ++i) {
    const HttpResult get =
        Call(server_.port(), "GET",
             "/score?candidate=" + singles[i].first +
                 "&seeds=" + singles[i].second);
    ASSERT_EQ(get.status, 200) << get.body;
    Result<JsonValue> single = ParseJson(get.body);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(results->items()[i].Find("score")->AsDouble(),
              single.value().Find("score")->AsDouble());
    EXPECT_EQ(results->items()[i].Find("candidate")->AsInt(),
              std::stoi(singles[i].first));
  }
}

TEST_F(ServeHttpTest, PostScoreRejectsMalformedBodiesWithTypedEnvelope) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"not json at all", "INVALID_ARGUMENT"},
      {"[1,2,3]", "INVALID_ARGUMENT"},
      {"{\"queries\": 7}", "INVALID_ARGUMENT"},
      {"{\"queries\": [{\"candidate\": -1, \"seeds\": [1]}]}",
       "INVALID_ARGUMENT"},
      {"{\"queries\": [{\"candidate\": 1, \"seeds\": \"oops\"}]}",
       "INVALID_ARGUMENT"},
      {"{\"queries\": [{\"candidate\": 1, \"seeds\": [2]}], "
       "\"aggregation\": \"Bogus\"}",
       "INVALID_ARGUMENT"},
  };
  for (const auto& [body, code] : bad) {
    SCOPED_TRACE(body);
    const HttpResult got = Call(server_.port(), "POST", "/score", body);
    EXPECT_EQ(got.status, 400);
    Result<JsonValue> doc = ParseJson(got.body);
    ASSERT_TRUE(doc.ok()) << got.body;
    ASSERT_NE(doc.value().Find("code"), nullptr);
    EXPECT_EQ(doc.value().Find("code")->AsString(), code);
    ASSERT_NE(doc.value().Find("error"), nullptr);
  }
}

TEST_F(ServeHttpTest, ErrorEnvelopeIsUniformAcrossLayers) {
  // Transport-layer 404, route-layer 405, and serve-layer 400/404 all
  // speak the same {"error", "code"} schema.
  struct Case {
    std::string method, target, body;
    int status;
    std::string code;
  };
  const std::vector<Case> cases = {
      {"GET", "/nope", "", 404, "NOT_FOUND"},
      {"POST", "/topk", "{}", 405, "METHOD_NOT_ALLOWED"},
      {"GET", "/score?candidate=1", "", 400, "INVALID_ARGUMENT"},
      {"GET", "/score?candidate=9999&seeds=1", "", 404, "NOT_FOUND"},
      {"GET", "/topk?seeds=abc", "", 400, "INVALID_ARGUMENT"},
      // k past UINT32_MAX is refused, not wrapped to k=3.
      {"GET", "/topk?seeds=1,2&k=4294967299", "", 400, "INVALID_ARGUMENT"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.method + " " + c.target);
    const HttpResult got = Call(server_.port(), c.method, c.target, c.body);
    EXPECT_EQ(got.status, c.status);
    Result<JsonValue> doc = ParseJson(got.body);
    ASSERT_TRUE(doc.ok()) << got.body;
    ASSERT_NE(doc.value().Find("error"), nullptr) << got.body;
    ASSERT_NE(doc.value().Find("code"), nullptr) << got.body;
    EXPECT_EQ(doc.value().Find("code")->AsString(), c.code);
  }
}

TEST_F(ServeHttpTest, TopKIncludeSeedsAcceptsOneAndTrue) {
  for (const char* spelling : {"1", "true"}) {
    SCOPED_TRACE(spelling);
    const HttpResult got =
        Call(server_.port(), "GET",
             std::string("/topk?seeds=1,2&k=3&include_seeds=") + spelling);
    ASSERT_EQ(got.status, 200) << got.body;
    Result<JsonValue> doc = ParseJson(got.body);
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(doc.value().Find("scanned")->AsInt(), 64);
  }
}

TEST_F(ServeHttpTest, TopKReportsCoalescedFieldOnSingleRequests) {
  const HttpResult got =
      Call(server_.port(), "GET", "/topk?seeds=1,2&k=3");
  ASSERT_EQ(got.status, 200) << got.body;
  Result<JsonValue> doc = ParseJson(got.body);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc.value().Find("coalesced"), nullptr);
  EXPECT_FALSE(doc.value().Find("coalesced")->AsBool());
  EXPECT_EQ(doc.value().Find("results")->size(), 3u);
}

TEST_F(ServeHttpTest, MemPressureShedCarriesRetryAfterHeader) {
  // Headroom alone exceeds the 1-byte budget, so the shed fires no
  // matter what the accounting plane currently holds.
  obs::SetMemoryBudget({1, 2});
  const HttpResult shed = Call(server_.port(), "GET", "/topk?seeds=1&k=3");
  EXPECT_EQ(shed.status, 503);
  Result<JsonValue> doc = ParseJson(shed.body);
  ASSERT_TRUE(doc.ok()) << shed.body;
  EXPECT_EQ(doc.value().Find("code")->AsString(), "MEM_PRESSURE");
  // The same backoff hint the 429 OVERLOADED shed sends: clients should
  // treat both shed flavors identically.
  EXPECT_EQ(shed.HeaderOr("Retry-After", ""), "1") << shed.headers;

  // Budget cleared: the same query serves again.
  obs::SetMemoryBudget({0, 0});
  EXPECT_EQ(Call(server_.port(), "GET", "/topk?seeds=1&k=3").status, 200);
}

TEST(ServeHttpRpczTest, RpczCountsEveryRequestOnAReusedConnection) {
  obs::MetricsRegistry registry;
  obs::RpczRegistry rpcz(&registry);
  InfluenceService service = MakeService(32, 4);
  obs::StatsServer server({}, &registry);
  server.SetRequestObservability({&rpcz, nullptr, nullptr});
  RegisterServeEndpoints(&server, &service);
  obs::RegisterRequestObsEndpoints(&server, &rpcz, nullptr);
  ASSERT_TRUE(server.Start().ok());

  // Four requests pipelined down ONE keep-alive connection via the
  // client's raw-wire surface (framing driven by hand, read back one
  // framed response at a time).
  obs::HttpClient client(server.port());
  std::string burst;
  for (int i = 0; i < 3; ++i) {
    burst += obs::HttpClient::FormatRequest(
        "GET", "/score?candidate=5&seeds=1,2", "t", "");
  }
  burst += obs::HttpClient::FormatRequest(
      "GET", "/score?candidate=5&seeds=1,2", "t", "", {},
      /*keep_alive=*/false);
  ASSERT_TRUE(client.SendRaw(burst, /*deadline_ms=*/5000));
  // Four 200s and four distinct request ids came back.
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    obs::HttpClientResponse response;
    ASSERT_TRUE(client.ReadResponse(&response, /*deadline_ms=*/5000)) << i;
    EXPECT_EQ(response.status, 200) << i;
    const std::string id = response.HeaderOr("X-Request-Id", "");
    EXPECT_FALSE(id.empty()) << i;
    ids.push_back(id);
  }
  EXPECT_TRUE(client.AtEof());
  ASSERT_EQ(ids.size(), 4u);
  for (size_t i = 1; i < ids.size(); ++i) EXPECT_NE(ids[0], ids[i]);

  // /rpcz saw one row PER REQUEST, not per connection.
  const HttpResult rpcz_response = Call(server.port(), "GET", "/rpcz");
  ASSERT_EQ(rpcz_response.status, 200);
  Result<JsonValue> doc = ParseJson(rpcz_response.body);
  ASSERT_TRUE(doc.ok()) << rpcz_response.body;
  const JsonValue* endpoint =
      doc.value().Find("endpoints")->Find("/score");
  ASSERT_NE(endpoint, nullptr) << rpcz_response.body;
  EXPECT_EQ(endpoint->Find("requests")->AsInt(), 4);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace inf2vec
