// Merge-equality property tests: the scatter-gather coordinator's merged
// /topk ranking must be bit-identical to single-node InfluenceService
// TopK — same users, same scores, same tie order — for every shard count
// and both serving modes, on tie-heavy embeddings built to stress the
// comparator. Plus the degradation contract: a stopped shard yields a
// degraded (never hanging) partial answer, a lost gather owner yields
// gather_failed, and shards cut from different models refuse to
// assemble.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "embedding/model_io.h"
#include "obs/http_client.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/influence_service.h"
#include "serve/serve_endpoints.h"
#include "shard/coordinator.h"
#include "shard/shard_service.h"
#include "shard/shard_split.h"
#include "util/rng.h"

namespace inf2vec {
namespace shard {
namespace {

/// Tie-heavy store: every user's S/T rows come from a palette of 4
/// distinct vectors and biases from a palette of 3, so the candidate
/// space is full of exactly-equal scores and the ascending-id tie-break
/// does real work in every ranking.
EmbeddingStore MakeTieHeavyStore(uint32_t num_users, uint32_t dim,
                                 uint64_t seed) {
  EmbeddingStore store(num_users, dim);
  Rng rng(seed);
  std::vector<std::vector<double>> palette(4, std::vector<double>(dim));
  for (auto& row : palette) {
    for (double& x : row) x = rng.UniformDouble(-0.5, 0.5);
  }
  const double biases[3] = {-0.125, 0.0, 0.25};
  for (UserId u = 0; u < num_users; ++u) {
    const std::vector<double>& s = palette[u % palette.size()];
    const std::vector<double>& t = palette[(u / 2) % palette.size()];
    for (uint32_t d = 0; d < dim; ++d) {
      store.Source(u)[d] = s[d];
      store.Target(u)[d] = t[d];
    }
    store.mutable_source_bias(u) = biases[u % 3];
    store.mutable_target_bias(u) = biases[(u / 3) % 3];
  }
  return store;
}

std::string WriteModel(const EmbeddingStore& store, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  ModelMetadata metadata;
  metadata.aggregation = "Ave";
  metadata.dim = store.dim();
  EXPECT_TRUE(SaveModelArtifact(store, metadata, path).ok());
  return path;
}

/// One in-process shard backend: service + HTTP server + its registry.
struct ShardBackend {
  obs::MetricsRegistry registry;
  std::unique_ptr<ShardService> service;
  std::unique_ptr<obs::StatsServer> server;

  std::string address() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

/// Splits `model_path` into `num_shards` slices under a fresh directory
/// and serves each from an in-process StatsServer.
std::vector<std::unique_ptr<ShardBackend>> StartShardFleet(
    const std::string& model_path, uint32_t num_shards,
    const serve::ServiceOptions& options, const std::string& dir_name) {
  const std::string dir = ::testing::TempDir() + "/" + dir_name;
  std::filesystem::create_directories(dir);
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, dir, num_shards);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();

  std::vector<std::unique_ptr<ShardBackend>> fleet;
  for (const std::string& path : paths.value()) {
    auto backend = std::make_unique<ShardBackend>();
    Result<ShardService> service =
        ShardService::Load(path, options, &backend->registry);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    backend->service =
        std::make_unique<ShardService>(std::move(service).value());
    backend->server = std::make_unique<obs::StatsServer>(
        obs::StatsServerOptions{}, &backend->registry);
    RegisterShardEndpoints(backend->server.get(), backend->service.get());
    EXPECT_TRUE(backend->server->Start().ok());
    fleet.push_back(std::move(backend));
  }
  return fleet;
}

ShardCoordinator ConnectCoordinator(
    const std::vector<std::unique_ptr<ShardBackend>>& fleet,
    obs::MetricsRegistry* registry, obs::RpczRegistry* rpcz = nullptr) {
  CoordinatorOptions options;
  for (const auto& backend : fleet) {
    options.backends.push_back(backend->address());
  }
  options.registry = registry;
  options.rpcz = rpcz;
  Result<ShardCoordinator> coordinator =
      ShardCoordinator::Connect(std::move(options));
  EXPECT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  return std::move(coordinator).value();
}

void ExpectBitIdentical(const std::vector<serve::TopKEntry>& merged,
                        const std::vector<serve::TopKEntry>& single,
                        const std::string& label) {
  ASSERT_EQ(merged.size(), single.size()) << label;
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].user, single[i].user)
        << label << " rank " << i << " user";
    // Bitwise score equality, not approximate: the whole point.
    EXPECT_EQ(merged[i].score, single[i].score)
        << label << " rank " << i << " score";
  }
}

class ShardMergeEqualityTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, bool>> {};

TEST_P(ShardMergeEqualityTest, CoordinatorMatchesSingleNodeBitForBit) {
  const uint32_t num_shards = std::get<0>(GetParam());
  const bool int8_mode = std::get<1>(GetParam());
  const uint32_t kUsers = 61;  // Prime: uneven shard ranges.

  const EmbeddingStore store = MakeTieHeavyStore(kUsers, 6, 17);
  const std::string model_path = WriteModel(
      store, "merge_model_" + std::to_string(num_shards) +
                 (int8_mode ? "_q.i2v" : "_f.i2v"));

  serve::ServiceOptions options;
  options.quantize =
      int8_mode ? serve::QuantMode::kInt8 : serve::QuantMode::kNone;

  obs::MetricsRegistry single_registry;
  Result<serve::InfluenceService> single =
      serve::InfluenceService::Load(model_path, options, &single_registry);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  auto fleet = StartShardFleet(
      model_path, num_shards, options,
      "merge_fleet_" + std::to_string(num_shards) + (int8_mode ? "q" : "f"));
  obs::MetricsRegistry coord_registry;
  ShardCoordinator coordinator = ConnectCoordinator(fleet, &coord_registry);
  ASSERT_EQ(coordinator.num_shards(), num_shards);
  ASSERT_EQ(coordinator.quantized(), int8_mode);

  const std::vector<std::vector<UserId>> seed_sets = {
      {0},
      {60},
      {5, 23, 42},
      {12, 12, 13},  // duplicate seeds
      {0, 15, 30, 45, 60},
  };
  for (const std::vector<UserId>& seeds : seed_sets) {
    for (const uint32_t k : {1u, 7u, 10u, 61u, 100u}) {
      serve::TopKRequest single_request;
      single_request.seeds = seeds;
      single_request.k = k;
      Result<serve::TopKResult> expected = single.value().TopK(single_request);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();

      CoordTopKRequest request;
      request.seeds = seeds;
      request.k = k;
      Result<CoordTopKResult> merged = coordinator.TopK(request);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      EXPECT_FALSE(merged.value().degraded);
      EXPECT_TRUE(merged.value().shards_missing.empty());
      EXPECT_EQ(merged.value().scanned, expected.value().scanned);
      ExpectBitIdentical(
          merged.value().entries, expected.value().entries,
          "shards=" + std::to_string(num_shards) +
              (int8_mode ? " int8" : " fp64") + " k=" + std::to_string(k) +
              " seeds[0]=" + std::to_string(seeds[0]));
    }
  }

  // Routed /score agrees bitwise too.
  for (const UserId candidate : {0u, 29u, 60u}) {
    serve::ScoreRequest score_request;
    score_request.candidate = candidate;
    score_request.seeds = {5, 23, 42};
    Result<serve::ScoreResult> expected =
        single.value().ScoreActivation(score_request);
    ASSERT_TRUE(expected.ok());
    Result<CoordScoreResult> scored =
        coordinator.Score(candidate, {5, 23, 42}, std::nullopt, 0);
    ASSERT_TRUE(scored.ok()) << scored.status().ToString();
    EXPECT_EQ(scored.value().score, expected.value().score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShardCounts, ShardMergeEqualityTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(false, true)));

/// GET `target` from a loopback server; the parsed body of its 200 answer.
obs::JsonValue GetJson(uint16_t port, const std::string& target) {
  obs::HttpClient client(port);
  obs::HttpClientResponse response;
  EXPECT_TRUE(client.Get(target, &response, 5000)) << target;
  EXPECT_EQ(response.status, 200) << target << ": " << response.body;
  Result<obs::JsonValue> doc = obs::ParseJson(response.body);
  EXPECT_TRUE(doc.ok()) << target << ": " << response.body;
  return doc.ok() ? doc.value() : obs::JsonValue::Object();
}

TEST(ShardHttpTest, LongSeedListsOverHttpMatchSingleNodeBitForBit) {
  // 120 seeds make a `seeds` value of ~440 bytes, far past any in-object
  // string buffer: a parser that splits a destroyed temporary answers
  // garbage here (and fails under ASan).
  std::string seeds;
  for (uint32_t i = 0; i < 120; ++i) {
    seeds += (i == 0 ? "" : ",") + std::to_string(i * 7 % 150);
  }
  const std::vector<std::string> topk_queries = {
      "/topk?seeds=" + seeds + "&k=10",
      "/topk?seeds=" + seeds + "&k=25&include_seeds=true",
      "/topk?seeds=" + seeds + "&k=5&aggregation=Max",
  };
  for (const bool int8_mode : {false, true}) {
    SCOPED_TRACE(int8_mode ? "int8" : "fp64");
    const EmbeddingStore store = MakeTieHeavyStore(150, 6, 37);
    const std::string model_path = WriteModel(
        store, std::string("long_seeds_") + (int8_mode ? "q" : "f") + ".i2v");
    serve::ServiceOptions options;
    options.quantize =
        int8_mode ? serve::QuantMode::kInt8 : serve::QuantMode::kNone;

    obs::MetricsRegistry single_registry;
    Result<serve::InfluenceService> single =
        serve::InfluenceService::Load(model_path, options, &single_registry);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    obs::StatsServer single_server({}, &single_registry);
    serve::RegisterServeEndpoints(&single_server, &single.value());
    ASSERT_TRUE(single_server.Start().ok());

    auto fleet = StartShardFleet(
        model_path, 3, options,
        std::string("long_seeds_fleet_") + (int8_mode ? "q" : "f"));
    obs::MetricsRegistry coord_registry;
    ShardCoordinator coordinator = ConnectCoordinator(fleet, &coord_registry);
    obs::StatsServer coord_server({}, &coord_registry);
    RegisterCoordinatorEndpoints(&coord_server, &coordinator);
    ASSERT_TRUE(coord_server.Start().ok());

    for (const std::string& query : topk_queries) {
      SCOPED_TRACE(query.substr(query.size() - 30));
      const obs::JsonValue merged = GetJson(coord_server.port(), query);
      const obs::JsonValue expected = GetJson(single_server.port(), query);
      ASSERT_NE(merged.Find("results"), nullptr);
      ASSERT_NE(expected.Find("results"), nullptr);
      EXPECT_EQ(merged.Find("scanned")->AsInt(),
                expected.Find("scanned")->AsInt());
      const auto& got = merged.Find("results")->items();
      const auto& want = expected.Find("results")->items();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].Find("user")->AsInt(), want[i].Find("user")->AsInt())
            << "rank " << i;
        EXPECT_EQ(got[i].Find("score")->AsDouble(),
                  want[i].Find("score")->AsDouble())
            << "rank " << i;
      }
    }
    for (const char* candidate : {"0", "149"}) {
      const std::string query =
          std::string("/score?candidate=") + candidate + "&seeds=" + seeds;
      EXPECT_EQ(GetJson(coord_server.port(), query).Find("score")->AsDouble(),
                GetJson(single_server.port(), query).Find("score")->AsDouble())
          << "candidate " << candidate;
    }
    coord_server.Stop();
    single_server.Stop();
  }
}

TEST(ShardDegradationTest, StoppedShardYieldsDegradedPartialRanking) {
  obs::EnableMetrics(true);  // Counter increments are metrics-gated.
  const EmbeddingStore store = MakeTieHeavyStore(48, 4, 19);
  const std::string model_path = WriteModel(store, "degrade_model.i2v");
  auto fleet = StartShardFleet(model_path, 3, {}, "degrade_fleet");
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator = ConnectCoordinator(fleet, &registry);

  // Shard 1 owns the middle range; stop its server. Seeds stay on live
  // shards so gather succeeds and the scatter degrades.
  fleet[1]->server->Stop();

  CoordTopKRequest request;
  request.seeds = {0, 47};
  request.k = 10;
  Result<CoordTopKResult> result = coordinator.TopK(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().degraded);
  EXPECT_FALSE(result.value().gather_failed);
  ASSERT_EQ(result.value().shards_missing.size(), 1u);
  EXPECT_EQ(result.value().shards_missing[0], 1u);
  EXPECT_FALSE(result.value().entries.empty());
  // Every merged entry comes from a live shard's range.
  const ShardSliceInfo& dead = fleet[1]->service->info();
  for (const serve::TopKEntry& entry : result.value().entries) {
    EXPECT_TRUE(entry.user < dead.begin_user || entry.user >= dead.end_user);
  }
  const obs::MetricsRegistry::Snapshot snapshot = registry.Scrape();
  EXPECT_GE(snapshot.CounterOr0("serve.shard_errors") +
                snapshot.CounterOr0("serve.shard_timeouts"),
            1u);
  EXPECT_GE(snapshot.CounterOr0("serve.degraded_responses"), 1u);
  obs::EnableMetrics(false);
}

TEST(ShardDegradationTest, LostGatherOwnerFailsTheQuery) {
  const EmbeddingStore store = MakeTieHeavyStore(48, 4, 23);
  const std::string model_path = WriteModel(store, "degrade_gather.i2v");
  auto fleet = StartShardFleet(model_path, 3, {}, "degrade_gather_fleet");
  obs::MetricsRegistry registry;
  ShardCoordinator coordinator = ConnectCoordinator(fleet, &registry);

  fleet[0]->server->Stop();

  CoordTopKRequest request;
  request.seeds = {0};  // Owned by the stopped shard 0.
  request.k = 5;
  Result<CoordTopKResult> result = coordinator.TopK(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().gather_failed);
  EXPECT_TRUE(result.value().degraded);
  EXPECT_TRUE(result.value().entries.empty());
  ASSERT_EQ(result.value().shards_missing.size(), 1u);
  EXPECT_EQ(result.value().shards_missing[0], 0u);

  Result<CoordScoreResult> scored = coordinator.Score(5, {0}, std::nullopt, 0);
  EXPECT_FALSE(scored.ok());
}

TEST(ShardTopologyTest, MixedModelHashesRefuseToAssemble) {
  const EmbeddingStore model_a = MakeTieHeavyStore(24, 4, 29);
  EmbeddingStore model_b = MakeTieHeavyStore(24, 4, 29);
  model_b.Source(3)[1] += 1e-6;  // Different content, same shape.

  auto fleet_a = StartShardFleet(WriteModel(model_a, "topo_a.i2v"), 2, {},
                                 "topo_fleet_a");
  auto fleet_b = StartShardFleet(WriteModel(model_b, "topo_b.i2v"), 2, {},
                                 "topo_fleet_b");

  obs::MetricsRegistry registry;
  CoordinatorOptions options;
  options.backends = {fleet_a[0]->address(), fleet_b[1]->address()};
  options.registry = &registry;
  Result<ShardCoordinator> coordinator =
      ShardCoordinator::Connect(std::move(options));
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardTopologyTest, MalformedShardzIsRefusedNotFatal) {
  // A non-integer field in a backend's /shardz is a refusal at Connect,
  // not an abort of the coordinator process.
  obs::MetricsRegistry registry;
  obs::StatsServer fake({}, &registry);
  fake.Route("GET", "/shardz", [](const obs::HttpRequest&) {
    return obs::HttpResponse::Json(
        200,
        "{\"shard_index\": 0.5, \"num_shards\": 1, \"begin_user\": 0, "
        "\"end_user\": 10, \"total_users\": 10, \"model_hash\": \"00\", "
        "\"dim\": 4, \"quantize\": \"none\"}");
  });
  ASSERT_TRUE(fake.Start().ok());
  CoordinatorOptions options;
  options.backends = {"127.0.0.1:" + std::to_string(fake.port())};
  options.registry = &registry;
  Result<ShardCoordinator> coordinator =
      ShardCoordinator::Connect(std::move(options));
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kInternal);
  fake.Stop();
}

TEST(ShardTopologyTest, IncompleteTilingRefused) {
  const EmbeddingStore store = MakeTieHeavyStore(30, 4, 31);
  const std::string model_path = WriteModel(store, "topo_gap.i2v");
  auto fleet = StartShardFleet(model_path, 3, {}, "topo_gap_fleet");

  obs::MetricsRegistry registry;
  CoordinatorOptions options;
  // Shard 1 missing: ranges no longer tile [0, 30).
  options.backends = {fleet[0]->address(), fleet[2]->address()};
  options.registry = &registry;
  Result<ShardCoordinator> coordinator =
      ShardCoordinator::Connect(std::move(options));
  ASSERT_FALSE(coordinator.ok());
  EXPECT_EQ(coordinator.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace shard
}  // namespace inf2vec
