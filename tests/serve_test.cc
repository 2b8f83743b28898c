#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/embedding_predictor.h"
#include "embedding/model_io.h"
#include "obs/metrics.h"
#include "serve/influence_service.h"
#include "serve/seed_cache.h"
#include "serve/serve_endpoints.h"
#include "util/rng.h"

namespace inf2vec {
namespace serve {
namespace {

/// Fixed-seed random store; every test sees identical parameters.
EmbeddingStore MakeStore(uint32_t num_users, uint32_t dim, uint64_t seed) {
  EmbeddingStore store(num_users, dim);
  Rng rng(seed);
  store.InitUniform(-0.5, 0.5, rng);
  for (UserId u = 0; u < num_users; ++u) {
    store.mutable_source_bias(u) = rng.UniformDouble(-0.2, 0.2);
    store.mutable_target_bias(u) = rng.UniformDouble(-0.2, 0.2);
  }
  return store;
}

InfluenceService MakeService(uint32_t num_users, uint32_t dim,
                             ServiceOptions options = {}) {
  ModelArtifact artifact;
  artifact.store = MakeStore(num_users, dim, 17);
  artifact.metadata.aggregation = "Ave";
  artifact.metadata.dim = dim;
  Result<InfluenceService> service =
      InfluenceService::FromArtifact(std::move(artifact), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

TEST(InfluenceServiceTest, ScoreMatchesEmbeddingPredictorBitForBit) {
  const InfluenceService service = MakeService(64, 12);
  const EmbeddingStore store = MakeStore(64, 12, 17);
  const EmbeddingPredictor predictor("ref", &store, Aggregation::kAve);
  const std::vector<UserId> seeds = {3, 41, 7, 22};
  for (UserId candidate : {0u, 9u, 31u, 63u}) {
    ScoreRequest request;
    request.candidate = candidate;
    request.seeds = seeds;
    const Result<ScoreResult> got = service.ScoreActivation(request);
    ASSERT_TRUE(got.ok());
    // Bit-identical, not approximately equal: the serving path must do the
    // same in-order arithmetic as the evaluation path.
    EXPECT_EQ(got.value().score,
              predictor.ScoreActivation(candidate, seeds));
  }
}

TEST(InfluenceServiceTest, ScoreHonorsPerRequestAggregation) {
  const InfluenceService service = MakeService(32, 8);
  const EmbeddingStore store = MakeStore(32, 8, 17);
  const std::vector<UserId> seeds = {1, 2, 3};
  for (Aggregation aggregation :
       {Aggregation::kAve, Aggregation::kSum, Aggregation::kMax,
        Aggregation::kLatest}) {
    const EmbeddingPredictor predictor("ref", &store, aggregation);
    ScoreRequest request;
    request.candidate = 20;
    request.seeds = seeds;
    request.aggregation = aggregation;
    const Result<ScoreResult> got = service.ScoreActivation(request);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().score, predictor.ScoreActivation(20, seeds));
  }
}

TEST(InfluenceServiceTest, TopKMatchesBruteForceRankingExactly) {
  const InfluenceService service = MakeService(200, 10);
  const EmbeddingStore store = MakeStore(200, 10, 17);
  const EmbeddingPredictor predictor("ref", &store, Aggregation::kAve);
  const std::vector<UserId> seeds = {5, 99, 150};
  const uint32_t k = 17;

  // Brute force: score everyone, sort by (score desc, id asc).
  std::vector<TopKEntry> expected;
  for (UserId v = 0; v < store.num_users(); ++v) {
    if (std::find(seeds.begin(), seeds.end(), v) != seeds.end()) continue;
    expected.push_back({v, predictor.ScoreActivation(v, seeds)});
  }
  std::sort(expected.begin(), expected.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.user < b.user;
            });
  expected.resize(k);

  TopKRequest request;
  request.seeds = seeds;
  request.k = k;
  const Result<TopKResult> got = service.TopK(request);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().entries.size(), k);
  EXPECT_EQ(got.value().scanned, store.num_users() - seeds.size());
  for (uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(got.value().entries[i].user, expected[i].user) << "rank " << i;
    // Bit-identical scores (same arithmetic as EmbeddingStore::Score).
    EXPECT_EQ(got.value().entries[i].score, expected[i].score);
  }
}

TEST(InfluenceServiceTest, TopKTieBreaksByAscendingUserId) {
  // All-zero store: every candidate scores identically, so the top-k must
  // be exactly the k lowest non-seed ids.
  ModelArtifact artifact;
  artifact.store = EmbeddingStore(20, 4);
  Result<InfluenceService> service =
      InfluenceService::FromArtifact(std::move(artifact), {});
  ASSERT_TRUE(service.ok());
  TopKRequest request;
  request.seeds = {0, 2};
  request.k = 5;
  const Result<TopKResult> got = service.value().TopK(request);
  ASSERT_TRUE(got.ok());
  const std::vector<UserId> want = {1, 3, 4, 5, 6};
  ASSERT_EQ(got.value().entries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.value().entries[i].user, want[i]);
  }
}

TEST(InfluenceServiceTest, TopKIncludeSeedsScansEveryone) {
  const InfluenceService service = MakeService(50, 6);
  TopKRequest request;
  request.seeds = {1, 2};
  request.k = 50;
  request.include_seeds = true;
  const Result<TopKResult> got = service.TopK(request);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().scanned, 50u);
  EXPECT_EQ(got.value().entries.size(), 50u);
}

TEST(InfluenceServiceTest, UnknownUsersReturnNotFound) {
  const InfluenceService service = MakeService(16, 4);
  ScoreRequest bad_candidate;
  bad_candidate.candidate = 16;  // One past the end.
  bad_candidate.seeds = {1};
  EXPECT_EQ(service.ScoreActivation(bad_candidate).status().code(),
            StatusCode::kNotFound);

  ScoreRequest bad_seed;
  bad_seed.candidate = 1;
  bad_seed.seeds = {2, 999};
  EXPECT_EQ(service.ScoreActivation(bad_seed).status().code(),
            StatusCode::kNotFound);

  TopKRequest bad_topk;
  bad_topk.seeds = {999};
  EXPECT_EQ(service.TopK(bad_topk).status().code(), StatusCode::kNotFound);
}

TEST(InfluenceServiceTest, EmptyAndOversizedRequestsAreInvalid) {
  ServiceOptions options;
  options.max_seeds = 4;
  options.max_k = 8;
  options.max_batch = 2;
  const InfluenceService service = MakeService(16, 4, std::move(options));

  ScoreRequest empty;
  empty.candidate = 1;
  EXPECT_EQ(service.ScoreActivation(empty).status().code(),
            StatusCode::kInvalidArgument);

  ScoreRequest oversized;
  oversized.candidate = 1;
  oversized.seeds = {1, 2, 3, 4, 5};
  EXPECT_EQ(service.ScoreActivation(oversized).status().code(),
            StatusCode::kInvalidArgument);

  TopKRequest big_k;
  big_k.seeds = {1};
  big_k.k = 9;
  EXPECT_EQ(service.TopK(big_k).status().code(),
            StatusCode::kInvalidArgument);

  TopKRequest zero_k;
  zero_k.seeds = {1};
  zero_k.k = 0;
  EXPECT_EQ(service.TopK(zero_k).status().code(),
            StatusCode::kInvalidArgument);

  BatchScoreRequest empty_batch;
  EXPECT_EQ(service.ScoreBatch(empty_batch).status().code(),
            StatusCode::kInvalidArgument);

  BatchScoreRequest big_batch;
  big_batch.items.resize(3, BatchItem{1, {2}});
  EXPECT_EQ(service.ScoreBatch(big_batch).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InfluenceServiceTest, DeadlineExceededIsDeterministicWithFakeClock) {
  // The fake clock advances 1000us per reading, so a 500us budget is
  // always blown by the first post-gather deadline check.
  ServiceOptions options;
  auto now = std::make_shared<uint64_t>(0);
  options.clock_us = [now]() { return *now += 1000; };
  const InfluenceService service = MakeService(64, 4, std::move(options));

  ScoreRequest request;
  request.candidate = 1;
  request.seeds = {2, 3};
  request.deadline_us = 500;
  const Result<ScoreResult> score = service.ScoreActivation(request);
  EXPECT_EQ(score.status().code(), StatusCode::kDeadlineExceeded);

  TopKRequest topk;
  topk.seeds = {2, 3};
  topk.deadline_us = 500;
  EXPECT_EQ(service.TopK(topk).status().code(),
            StatusCode::kDeadlineExceeded);

  BatchScoreRequest batch;
  batch.items.push_back({1, {2}});
  batch.deadline_us = 500;
  EXPECT_EQ(service.ScoreBatch(batch).status().code(),
            StatusCode::kDeadlineExceeded);

  // A generous budget against the same clock succeeds.
  ScoreRequest relaxed = request;
  relaxed.deadline_us = 1000000;
  EXPECT_TRUE(service.ScoreActivation(relaxed).ok());
}

TEST(InfluenceServiceTest, SeedCacheHitsOnRepeatAndRespectsOrder) {
  const InfluenceService service = MakeService(32, 8);
  ScoreRequest request;
  request.candidate = 4;
  request.seeds = {1, 2, 3};

  const Result<ScoreResult> first = service.ScoreActivation(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  const Result<ScoreResult> second = service.ScoreActivation(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  EXPECT_EQ(first.value().score, second.value().score);

  // A different ordering is a distinct key (Latest is order-sensitive).
  ScoreRequest reordered = request;
  reordered.seeds = {3, 2, 1};
  const Result<ScoreResult> third = service.ScoreActivation(reordered);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.value().cache_hit);

  EXPECT_EQ(service.seed_cache().hits(), 1u);
  EXPECT_EQ(service.seed_cache().misses(), 2u);
}

TEST(InfluenceServiceTest, DisabledCacheNeverHits) {
  ServiceOptions options;
  options.seed_cache_capacity = 0;
  const InfluenceService service = MakeService(32, 8, std::move(options));
  ScoreRequest request;
  request.candidate = 4;
  request.seeds = {1, 2, 3};
  ASSERT_TRUE(service.ScoreActivation(request).ok());
  const Result<ScoreResult> again = service.ScoreActivation(request);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().cache_hit);
  EXPECT_EQ(service.seed_cache().size(), 0u);
}

TEST(SeedBlockCacheTest, EvictsLeastRecentlyUsed) {
  const ServingTable table(MakeStore(16, 4, 3));
  SeedBlockCache cache(2);
  cache.Get(table, {1}, nullptr);
  cache.Get(table, {2}, nullptr);
  cache.Get(table, {1}, nullptr);  // Refresh {1}; {2} is now LRU.
  cache.Get(table, {3}, nullptr);  // Evicts {2}.
  bool hit = false;
  cache.Get(table, {1}, &hit);
  EXPECT_TRUE(hit);
  cache.Get(table, {2}, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SeedBlockCacheTest, GatheredRowsMatchStoreBitForBit) {
  const EmbeddingStore store = MakeStore(8, 4, 9);
  const SeedBlock block = GatherSeedBlock(ServingTable(store), {5, 1});
  ASSERT_EQ(block.num_seeds(), 2u);
  EXPECT_EQ(block.seeds, (std::vector<UserId>{5, 1}));
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_EQ(block.Element(0, k), store.Source(5)[k]);
    EXPECT_EQ(block.Element(1, k), store.Source(1)[k]);
  }
  EXPECT_EQ(block.biases[0], store.source_bias(5));
  EXPECT_EQ(block.biases[1], store.source_bias(1));
}

TEST(InfluenceServiceTest, TransportedBlockOfWrongModeOrDimIsRefused) {
  const InfluenceService fp64 = MakeService(16, 4);
  ServiceOptions int8_options;
  int8_options.quantize = QuantMode::kInt8;
  const InfluenceService int8 = MakeService(16, 4, std::move(int8_options));
  const SeedBlock fp64_block = GatherSeedBlock(fp64.table(), {1, 2});
  const SeedBlock int8_block = GatherSeedBlock(int8.table(), {1, 2});
  const SeedBlock wide_block =
      GatherSeedBlock(ServingTable(MakeStore(16, 5, 3)), {1, 2});
  BlockTopKRequest request;
  request.k = 3;

  // The element type must match the serving table's.
  for (const auto& [service, block] :
       {std::pair{&fp64, &int8_block}, std::pair{&int8, &fp64_block}}) {
    EXPECT_EQ(service->TopKWithBlock(*block, request).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(service->ScoreWithBlock(*block, 3, std::nullopt).status().code(),
              StatusCode::kFailedPrecondition);
  }
  // So must the dim, and the arrays must match the seed count.
  SeedBlock short_rows = fp64_block;
  std::get<SeedBlock::Fp64Rows>(short_rows.rows).resize(short_rows.stride);
  for (const SeedBlock* block : {&wide_block, &std::as_const(short_rows)}) {
    EXPECT_EQ(fp64.TopKWithBlock(*block, request).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(fp64.ScoreWithBlock(*block, 3, std::nullopt).status().code(),
              StatusCode::kInvalidArgument);
  }
  // A block gathered by a table of the same mode is accepted.
  EXPECT_TRUE(fp64.TopKWithBlock(fp64_block, request).ok());
  EXPECT_TRUE(int8.ScoreWithBlock(int8_block, 3, std::nullopt).ok());
}

TEST(InfluenceServiceTest, BatchMatchesSingleQueryScores) {
  for (uint32_t threads : {1u, 3u}) {
    ServiceOptions options;
    options.num_threads = threads;
    const InfluenceService service = MakeService(64, 8, std::move(options));

    BatchScoreRequest batch;
    for (UserId candidate = 0; candidate < 40; ++candidate) {
      batch.items.push_back(
          {candidate, {candidate % 7, 20 + candidate % 5}});
    }
    const Result<BatchScoreResult> got = service.ScoreBatch(batch);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value().scores.size(), batch.items.size());

    for (size_t i = 0; i < batch.items.size(); ++i) {
      ScoreRequest single;
      single.candidate = batch.items[i].candidate;
      single.seeds = batch.items[i].seeds;
      const Result<ScoreResult> expected = service.ScoreActivation(single);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(got.value().scores[i], expected.value().score)
          << "item " << i << " threads " << threads;
    }
  }
}

TEST(InfluenceServiceTest, ConcurrentReadersAgreeAndSurviveTsan) {
  ServiceOptions options;
  options.num_threads = 2;
  const InfluenceService service = MakeService(128, 8, std::move(options));

  ScoreRequest score_request;
  score_request.candidate = 7;
  score_request.seeds = {1, 2, 3};
  const Result<ScoreResult> score_ref =
      service.ScoreActivation(score_request);
  ASSERT_TRUE(score_ref.ok());

  TopKRequest topk_request;
  topk_request.seeds = {1, 2, 3};
  topk_request.k = 5;
  const Result<TopKResult> topk_ref = service.TopK(topk_request);
  ASSERT_TRUE(topk_ref.ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      for (int i = 0; i < 50; ++i) {
        if (t % 2 == 0) {
          const Result<ScoreResult> got =
              service.ScoreActivation(score_request);
          if (!got.ok() || got.value().score != score_ref.value().score) {
            failures.fetch_add(1);
          }
        } else {
          const Result<TopKResult> got = service.TopK(topk_request);
          if (!got.ok() ||
              got.value().entries.size() !=
                  topk_ref.value().entries.size() ||
              got.value().entries[0].user !=
                  topk_ref.value().entries[0].user) {
            failures.fetch_add(1);
          }
        }
        // Interleave batch calls to exercise the pool serialization.
        if (i % 10 == 0) {
          BatchScoreRequest batch;
          batch.items.push_back({static_cast<UserId>(t), {1, 2}});
          batch.items.push_back({static_cast<UserId>(t + 10), {3}});
          if (!service.ScoreBatch(batch).ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(InfluenceServiceTest, LoadRoundTripsArtifactMetadata) {
  const std::string path = ::testing::TempDir() + "/serve_roundtrip.bin";
  const EmbeddingStore store = MakeStore(24, 6, 5);
  ModelMetadata metadata;
  metadata.aggregation = "Max";
  metadata.dim = 6;
  metadata.seed = 5;
  metadata.git_sha = "abc123";
  ASSERT_TRUE(SaveModelArtifact(store, metadata, path).ok());

  Result<InfluenceService> service = InfluenceService::Load(path, {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // The artifact's aggregation drives scoring unless options override it.
  EXPECT_EQ(service.value().default_aggregation(), Aggregation::kMax);
  EXPECT_EQ(service.value().metadata().git_sha, "abc123");
  EXPECT_EQ(service.value().num_users(), 24u);
  service.value().Warm();
  std::remove(path.c_str());
}

TEST(InfluenceServiceTest, DescribeJsonCarriesModelAndCacheSections) {
  const InfluenceService service = MakeService(16, 4);
  const obs::JsonValue json = service.DescribeJson();
  ASSERT_NE(json.Find("model"), nullptr);
  ASSERT_NE(json.Find("serving"), nullptr);
  ASSERT_NE(json.Find("seed_cache"), nullptr);
  EXPECT_EQ(json.Find("num_users")->AsInt(), 16);
  EXPECT_EQ(json.Find("aggregation")->AsString(), "Ave");
}

TEST(ServeEndpointsTest, HttpCodeMappingCoversTheStatusVocabulary) {
  EXPECT_EQ(HttpCodeFor(Status::OK()), 200);
  EXPECT_EQ(HttpCodeFor(Status::InvalidArgument("x")), 400);
  EXPECT_EQ(HttpCodeFor(Status::NotFound("x")), 404);
  EXPECT_EQ(HttpCodeFor(Status::DeadlineExceeded("x")), 504);
  EXPECT_EQ(HttpCodeFor(Status::FailedPrecondition("x")), 409);
  EXPECT_EQ(HttpCodeFor(Status::Internal("x")), 500);
  EXPECT_EQ(HttpCodeFor(Status::IOError("x")), 500);
}

TEST(InfluenceServiceTest, ServeMetricsAreRecordedWhenEnabled) {
  obs::MetricsRegistry::Default().Reset();
  obs::EnableMetrics(true);
  const InfluenceService service = MakeService(32, 4);
  ScoreRequest request;
  request.candidate = 1;
  request.seeds = {2, 3};
  ASSERT_TRUE(service.ScoreActivation(request).ok());
  ASSERT_TRUE(service.ScoreActivation(request).ok());
  ScoreRequest bad = request;
  bad.candidate = 999;
  ASSERT_FALSE(service.ScoreActivation(bad).ok());

  const obs::MetricsRegistry::Snapshot snapshot =
      obs::MetricsRegistry::Default().Scrape();
  EXPECT_EQ(snapshot.CounterOr0("serve.score.requests"), 3u);
  EXPECT_EQ(snapshot.CounterOr0("serve.errors"), 1u);
  EXPECT_EQ(snapshot.CounterOr0("serve.seed_cache.hits"), 1u);
  EXPECT_EQ(snapshot.CounterOr0("serve.seed_cache.misses"), 1u);
  const Histogram* latency =
      snapshot.FindHistogram("serve.score.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->total_count(), 2u);
  obs::EnableMetrics(false);
  obs::MetricsRegistry::Default().Reset();
}

}  // namespace
}  // namespace serve
}  // namespace inf2vec
