#include "embedding/quantized_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "embedding/model_io.h"
#include "serve/influence_service.h"
#include "serve/model_swapper.h"
#include "util/io.h"
#include "util/rng.h"

namespace inf2vec {
namespace {

using serve::InfluenceService;
using serve::QuantMode;
using serve::ServiceOptions;
using serve::TopKRequest;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A store whose rows have heavy-tailed magnitudes, so top-k rankings
/// have realistic separation (trained influence models concentrate mass
/// on a few strong influencers; iid-uniform rows would make the top-10
/// a coin flip between near-ties and test quantization noise, not
/// ranking fidelity).
EmbeddingStore MakeSpreadStore(uint32_t num_users, uint32_t dim,
                               uint64_t seed) {
  EmbeddingStore store(num_users, dim);
  Rng rng(seed);
  store.InitUniform(-1.0, 1.0, rng);
  for (UserId u = 0; u < num_users; ++u) {
    const double scale = std::exp(rng.UniformDouble(-2.0, 1.0));
    for (double& x : store.Source(u)) x *= scale;
    const double tscale = std::exp(rng.UniformDouble(-2.0, 1.0));
    for (double& x : store.Target(u)) x *= tscale;
    store.mutable_source_bias(u) = rng.UniformDouble(-0.1, 0.1);
    store.mutable_target_bias(u) = rng.UniformDouble(-0.1, 0.1);
  }
  return store;
}

TEST(QuantizedStoreTest, CodesBoundedAndDequantWithinHalfScale) {
  const EmbeddingStore store = MakeSpreadStore(50, 13, 3);
  const QuantizedEmbeddingStore q = QuantizedEmbeddingStore::FromStore(store);
  ASSERT_EQ(q.num_users(), store.num_users());
  ASSERT_EQ(q.dim(), store.dim());
  for (UserId u = 0; u < store.num_users(); ++u) {
    const auto row = store.Source(u);
    const auto codes = q.Source(u);
    const float scale = q.source_scale(u);
    for (uint32_t k = 0; k < store.dim(); ++k) {
      EXPECT_GE(codes[k], -127);
      EXPECT_LE(codes[k], 127);
      EXPECT_NEAR(static_cast<double>(codes[k]) * scale, row[k],
                  0.5 * scale + 1e-12)
          << "u=" << u << " k=" << k;
    }
  }
}

TEST(QuantizedStoreTest, AllZeroRowQuantizesToZeroScaleAndCodes) {
  EmbeddingStore store(2, 8);  // Zero-initialized.
  const QuantizedEmbeddingStore q = QuantizedEmbeddingStore::FromStore(store);
  EXPECT_EQ(q.source_scale(0), 0.0f);
  for (int8_t c : q.Source(0)) EXPECT_EQ(c, 0);
  EXPECT_EQ(q.Score(0, 1), 0.0);
}

TEST(QuantizedStoreTest, ArtifactRoundTripsQuantizedSectionExactly) {
  const EmbeddingStore store = MakeSpreadStore(40, 13, 7);
  const QuantizedEmbeddingStore q = QuantizedEmbeddingStore::FromStore(store);
  const std::string path = TempPath("quant_roundtrip.bin");
  ModelMetadata metadata;
  metadata.aggregation = "Sum";
  ASSERT_TRUE(SaveModelArtifact(store, metadata, path, &q).ok());

  Result<ModelArtifact> loaded = LoadModelArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded.value().quantized.has_value());
  const QuantizedEmbeddingStore& lq = *loaded.value().quantized;
  ASSERT_EQ(lq.num_users(), q.num_users());
  ASSERT_EQ(lq.dim(), q.dim());
  for (UserId u = 0; u < q.num_users(); ++u) {
    for (uint32_t k = 0; k < q.dim(); ++k) {
      EXPECT_EQ(lq.Source(u)[k], q.Source(u)[k]);
      EXPECT_EQ(lq.Target(u)[k], q.Target(u)[k]);
    }
    EXPECT_EQ(lq.source_scale(u), q.source_scale(u));
    EXPECT_EQ(lq.target_scale(u), q.target_scale(u));
    EXPECT_EQ(lq.source_bias(u), q.source_bias(u));
    EXPECT_EQ(lq.target_bias(u), q.target_bias(u));
  }
  // The fp64 table is untouched by the trailing section.
  EXPECT_EQ(loaded.value().store, store);
  EXPECT_EQ(loaded.value().metadata.aggregation, "Sum");
}

TEST(QuantizedStoreTest, SectionUnawareLoaderPathStillGetsFp64Table) {
  const EmbeddingStore store = MakeSpreadStore(20, 8, 11);
  const QuantizedEmbeddingStore q = QuantizedEmbeddingStore::FromStore(store);
  const std::string path = TempPath("quant_fp64_path.bin");
  ASSERT_TRUE(SaveModelArtifact(store, ModelMetadata(), path, &q).ok());
  Result<EmbeddingStore> loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), store);
}

TEST(QuantizedStoreTest, V1ArtifactWithTrailingBytesIsRejected) {
  const EmbeddingStore store = MakeSpreadStore(5, 4, 13);
  const std::string path = TempPath("v1_trailing.bin");
  ASSERT_TRUE(SaveEmbeddingsV1(store, path).ok());
  std::string blob;
  ASSERT_TRUE(ReadFile(path, &blob).ok());
  blob += "junk";
  ASSERT_TRUE(WriteFile(path, blob).ok());
  EXPECT_FALSE(LoadModelArtifact(path).ok());
}

TEST(QuantizedStoreTest, V2ArtifactWithCorruptSectionIsRejected) {
  const EmbeddingStore store = MakeSpreadStore(5, 4, 13);
  const std::string path = TempPath("v2_corrupt_section.bin");
  ASSERT_TRUE(SaveModelArtifact(store, ModelMetadata(), path).ok());
  std::string blob;
  ASSERT_TRUE(ReadFile(path, &blob).ok());
  blob += "not-a-quant-section";
  ASSERT_TRUE(WriteFile(path, blob).ok());
  EXPECT_FALSE(LoadModelArtifact(path).ok());
}

TEST(QuantizedStoreTest, ServiceScoreMatchesStoreScoreBitwise) {
  EmbeddingStore store = MakeSpreadStore(60, 16, 17);
  ModelArtifact artifact;
  artifact.store = store;
  ServiceOptions options;
  options.quantize = QuantMode::kInt8;
  Result<InfluenceService> service =
      InfluenceService::FromArtifact(std::move(artifact), options);
  ASSERT_TRUE(service.ok());
  ASSERT_EQ(service.value().quant_mode(), QuantMode::kInt8);
  const QuantizedEmbeddingStore quantized =
      QuantizedEmbeddingStore::FromStore(store);
  const QuantizedEmbeddingStore* q = &quantized;

  // Single-seed Ave == the raw pair score: the service's seed-block path
  // must agree with QuantizedEmbeddingStore::Score to the last bit.
  for (UserId u = 0; u < 10; ++u) {
    serve::ScoreRequest request;
    request.candidate = 59 - u;
    request.seeds = {u};
    request.aggregation = Aggregation::kAve;
    Result<serve::ScoreResult> result =
        service.value().ScoreActivation(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().score, q->Score(u, 59 - u)) << "u=" << u;
  }
}

TEST(QuantizedStoreTest, PersistedSectionAndLoadTimeQuantizationAgree) {
  const EmbeddingStore store = MakeSpreadStore(80, 24, 19);
  const QuantizedEmbeddingStore q = QuantizedEmbeddingStore::FromStore(store);
  const std::string path = TempPath("quant_agree.bin");
  ASSERT_TRUE(SaveModelArtifact(store, ModelMetadata(), path, &q).ok());

  ServiceOptions options;
  options.quantize = QuantMode::kInt8;
  Result<InfluenceService> from_section =
      InfluenceService::Load(path, options);
  ASSERT_TRUE(from_section.ok());

  ModelArtifact bare;
  bare.store = store;  // No section: quantizes at load.
  Result<InfluenceService> from_fp64 =
      InfluenceService::FromArtifact(std::move(bare), options);
  ASSERT_TRUE(from_fp64.ok());

  TopKRequest request;
  request.seeds = {1, 5, 9};
  request.k = 10;
  Result<serve::TopKResult> a = from_section.value().TopK(request);
  Result<serve::TopKResult> b = from_fp64.value().TopK(request);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().entries.size(), b.value().entries.size());
  for (size_t i = 0; i < a.value().entries.size(); ++i) {
    EXPECT_EQ(a.value().entries[i].user, b.value().entries[i].user);
    EXPECT_EQ(a.value().entries[i].score, b.value().entries[i].score);
  }
}

TEST(QuantizedStoreTest, ModelSwapperCarriesQuantModeThroughHotSwap) {
  const EmbeddingStore store = MakeSpreadStore(30, 8, 23);
  const std::string path = TempPath("quant_swap.bin");
  ASSERT_TRUE(SaveModelArtifact(store, ModelMetadata(), path).ok());
  ServiceOptions options;
  options.quantize = QuantMode::kInt8;
  serve::ModelSwapper swapper(path, options);
  ASSERT_TRUE(swapper.Reload().ok());
  {
    const auto model = swapper.Acquire();
    EXPECT_EQ(model->service.quant_mode(), QuantMode::kInt8);
  }
  // Rewrite the model file and hot-swap: the new generation must stay
  // quantized.
  const EmbeddingStore store2 = MakeSpreadStore(30, 8, 29);
  ASSERT_TRUE(SaveModelArtifact(store2, ModelMetadata(), path).ok());
  ASSERT_TRUE(swapper.Reload().ok());
  const auto model = swapper.Acquire();
  EXPECT_EQ(model->service.quant_mode(), QuantMode::kInt8);
}

/// The serving-accuracy gate from the issue: int8 top-10 must recover
/// >= 99% of the fp64 top-10, averaged over queries.
TEST(QuantizedStoreTest, QuantizedTopKRecallAt10IsAtLeast99Percent) {
  const uint32_t kUsers = 2000;
  const uint32_t kDim = 32;
  const EmbeddingStore store = MakeSpreadStore(kUsers, kDim, 31);

  ModelArtifact fp64_artifact;
  fp64_artifact.store = store;
  Result<InfluenceService> fp64 =
      InfluenceService::FromArtifact(std::move(fp64_artifact), {});
  ASSERT_TRUE(fp64.ok());

  ModelArtifact int8_artifact;
  int8_artifact.store = store;
  ServiceOptions int8_options;
  int8_options.quantize = QuantMode::kInt8;
  Result<InfluenceService> int8 =
      InfluenceService::FromArtifact(std::move(int8_artifact), int8_options);
  ASSERT_TRUE(int8.ok());

  Rng rng(37);
  const uint32_t kQueries = 50;
  const uint32_t kK = 10;
  uint32_t hit = 0;
  uint32_t total = 0;
  for (uint32_t qi = 0; qi < kQueries; ++qi) {
    TopKRequest request;
    const uint32_t num_seeds = 1 + static_cast<uint32_t>(rng.UniformU64(5));
    std::set<UserId> seeds;
    while (seeds.size() < num_seeds) {
      seeds.insert(static_cast<UserId>(rng.UniformU64(kUsers)));
    }
    request.seeds.assign(seeds.begin(), seeds.end());
    request.k = kK;
    Result<serve::TopKResult> exact = fp64.value().TopK(request);
    Result<serve::TopKResult> approx = int8.value().TopK(request);
    ASSERT_TRUE(exact.ok());
    ASSERT_TRUE(approx.ok());
    std::set<UserId> exact_set;
    for (const auto& e : exact.value().entries) exact_set.insert(e.user);
    for (const auto& e : approx.value().entries) {
      if (exact_set.count(e.user) != 0) ++hit;
    }
    total += static_cast<uint32_t>(exact.value().entries.size());
  }
  const double recall = static_cast<double>(hit) / total;
  std::printf("int8 top-%u recall over %u queries: %.4f\n", kK, kQueries,
              recall);
  EXPECT_GE(recall, 0.99);
}

}  // namespace
}  // namespace inf2vec
