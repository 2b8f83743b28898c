// Each answer check accepts the true answer and rejects a perturbed one.
#include "checks.h"

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/embedding_predictor.h"
#include "embedding/model_io.h"
#include "serve/influence_service.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using inf2vec::Aggregation;
using inf2vec::EmbeddingStore;
using inf2vec::serve::TopKEntry;

EmbeddingStore SmallStore() {
  EmbeddingStore store(300, 16);
  inf2vec::Rng rng(7);
  store.InitPaperDefault(rng);
  return store;
}

/// The served answer, from the system's own top-k path.
std::vector<TopKEntry> ServedTopK(const EmbeddingStore& store,
                                  const std::vector<inf2vec::UserId>& seeds,
                                  uint32_t k) {
  inf2vec::ModelArtifact artifact;
  artifact.store = store;
  auto service = inf2vec::serve::InfluenceService::FromArtifact(
      std::move(artifact), inf2vec::serve::ServiceOptions());
  EXPECT_TRUE(service.ok());
  inf2vec::serve::TopKRequest request;
  request.seeds = seeds;
  request.k = k;
  auto result = service.value().TopK(request);
  EXPECT_TRUE(result.ok());
  return result.value().entries;
}

TEST(CheckTopKAnswer, AcceptsServedAnswerAndRejectsPerturbations) {
  const EmbeddingStore store = SmallStore();
  const std::vector<inf2vec::UserId> seeds = {3, 40, 41, 200};
  const std::vector<TopKEntry> served = ServedTopK(store, seeds, 10);
  ASSERT_EQ(served.size(), 10u);
  EXPECT_TRUE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 10, served).ok());

  std::vector<TopKEntry> swapped = served;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 10, swapped).ok());

  std::vector<TopKEntry> one_ulp = served;
  one_ulp[4].score = std::nextafter(one_ulp[4].score, 1e9);
  EXPECT_FALSE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 10, one_ulp).ok());

  std::vector<TopKEntry> with_seed = served;
  with_seed[9].user = seeds[0];
  EXPECT_FALSE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 10, with_seed).ok());

  std::vector<TopKEntry> short_answer(served.begin(), served.end() - 1);
  EXPECT_FALSE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 10, short_answer).ok());
}

TEST(CheckTopKAnswer, BreaksTiesByAscendingId) {
  EmbeddingStore store(6, 4);  // All-zero rows: every candidate ties.
  const std::vector<inf2vec::UserId> seeds = {2};
  const std::vector<TopKEntry> expected = {{0, 0.0}, {1, 0.0}, {3, 0.0}};
  EXPECT_TRUE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 3, expected).ok());
  const std::vector<TopKEntry> descending = {{5, 0.0}, {4, 0.0}, {3, 0.0}};
  EXPECT_FALSE(
      CheckTopKAnswer(store, Aggregation::kAve, seeds, 3, descending).ok());
}

TEST(CheckQuantizedScore, AcceptsServedScoreAndRejectsOneUlp) {
  const EmbeddingStore store = SmallStore();
  const inf2vec::QuantizedEmbeddingStore quantized =
      inf2vec::QuantizedEmbeddingStore::FromStore(store);
  inf2vec::ModelArtifact artifact;
  artifact.store = store;
  artifact.quantized = quantized;
  inf2vec::serve::ServiceOptions options;
  options.quantize = inf2vec::serve::QuantMode::kInt8;
  auto service = inf2vec::serve::InfluenceService::FromArtifact(
      std::move(artifact), options);
  ASSERT_TRUE(service.ok());
  inf2vec::serve::ScoreRequest request;
  request.candidate = 17;
  request.seeds = {5, 99, 250};
  auto served = service.value().ScoreActivation(request);
  ASSERT_TRUE(served.ok());
  const double score = served.value().score;
  EXPECT_TRUE(CheckQuantizedScore(quantized, Aggregation::kAve, 17,
                                  request.seeds, score)
                  .ok());
  EXPECT_FALSE(CheckQuantizedScore(quantized, Aggregation::kAve, 17,
                                   request.seeds,
                                   std::nextafter(score, 1e9))
                   .ok());
  EXPECT_FALSE(
      CheckQuantizedScore(quantized, Aggregation::kAve, 18, request.seeds,
                          score)
          .ok());
}

TEST(CheckGenerations, RejectsAnOlderGenerationAfterASwap) {
  const std::vector<SwapRecord> swaps = {{1000, 2}, {5000, 3}};
  const std::vector<GenerationRecord> good = {
      {500, 1}, {1500, 2}, {4000, 2}, {5001, 3}};
  EXPECT_TRUE(CheckGenerations(swaps, good).ok());
  // Sent before the swap returned: an old generation is still legal.
  EXPECT_TRUE(CheckGenerations(swaps, {{999, 1}}).ok());
  EXPECT_FALSE(CheckGenerations(swaps, {{1001, 1}}).ok());
  EXPECT_FALSE(CheckGenerations(swaps, {{6000, 2}}).ok());
}

TEST(CheckReloadIdentical, AcceptsARoundTripAndRejectsOneFlippedBit) {
  const EmbeddingStore store = SmallStore();
  const std::string path =
      (std::filesystem::temp_directory_path() / "perfbench_reload_test.bin")
          .string();
  inf2vec::ModelMetadata metadata;
  metadata.dim = store.dim();
  ASSERT_TRUE(inf2vec::SaveModelArtifact(store, metadata, path).ok());
  auto reloaded = inf2vec::LoadModelArtifact(path);
  std::filesystem::remove(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(CheckReloadIdentical(store, reloaded.value().store).ok());

  EmbeddingStore flipped = reloaded.value().store;
  flipped.Target(123)[7] = std::nextafter(flipped.Target(123)[7], 1e9);
  EXPECT_FALSE(CheckReloadIdentical(store, flipped).ok());
  EmbeddingStore bias = reloaded.value().store;
  bias.mutable_source_bias(0) += 1e-12;
  EXPECT_FALSE(CheckReloadIdentical(store, bias).ok());
}

TEST(CheckAucFloor, RejectsAnAucUnderTheFloor) {
  EXPECT_TRUE(CheckAucFloor(0.80, 0.75).ok());
  EXPECT_TRUE(CheckAucFloor(0.75, 0.75).ok());
  EXPECT_FALSE(CheckAucFloor(0.7499, 0.75).ok());
  EXPECT_FALSE(CheckAucFloor(std::nan(""), 0.75).ok());
}

}  // namespace
}  // namespace perfbench
