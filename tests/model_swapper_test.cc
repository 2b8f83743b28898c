// ModelSwapper tests: zero-downtime hot swap. The headline pin is the
// concurrency test — readers hammering /topk-equivalent queries during
// repeated reloads never see an error and never see a (generation, score)
// pair from two different models. Run under -DINF2VEC_SANITIZE=thread to
// prove the RCU publication is race-free.

#include "serve/model_swapper.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/embedding_predictor.h"
#include "embedding/model_io.h"
#include "obs/memory.h"
#include "util/io.h"
#include "util/rng.h"

namespace inf2vec {
namespace serve {
namespace {

constexpr uint32_t kUsers = 64;
constexpr uint32_t kDim = 8;

EmbeddingStore MakeStore(uint64_t seed, uint32_t dim = kDim) {
  EmbeddingStore store(kUsers, dim);
  Rng rng(seed);
  store.InitUniform(-0.5, 0.5, rng);
  for (UserId u = 0; u < kUsers; ++u) {
    store.mutable_source_bias(u) = rng.UniformDouble(-0.2, 0.2);
    store.mutable_target_bias(u) = rng.UniformDouble(-0.2, 0.2);
  }
  return store;
}

Status SaveModel(const std::string& path, uint64_t seed,
                 uint32_t dim = kDim) {
  ModelMetadata metadata;
  metadata.aggregation = "Ave";
  metadata.dim = dim;
  metadata.seed = seed;
  return SaveModelArtifact(MakeStore(seed, dim), metadata, path);
}

/// Reference score of the fixed probe query against the store `seed`
/// would produce — what a swapper serving that model must return.
double ExpectedScore(uint64_t seed, const std::vector<UserId>& seeds,
                     UserId candidate) {
  const EmbeddingStore store = MakeStore(seed);
  const EmbeddingPredictor predictor("ref", &store, Aggregation::kAve);
  return predictor.ScoreActivation(candidate, seeds);
}

/// Brute-force top-1 score over non-seed candidates for the store `seed`
/// would serve — the head a concurrent TopK query must observe.
double ExpectedTopScore(uint64_t seed, const std::vector<UserId>& seeds) {
  const EmbeddingStore store = MakeStore(seed);
  const EmbeddingPredictor predictor("ref", &store, Aggregation::kAve);
  double best = -1e300;
  for (UserId v = 0; v < kUsers; ++v) {
    if (std::find(seeds.begin(), seeds.end(), v) != seeds.end()) continue;
    best = std::max(best, predictor.ScoreActivation(v, seeds));
  }
  return best;
}

class ModelSwapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("inf2vec_swap_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    model_path_ = (dir_ / "model.bin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string model_path_;
};

TEST_F(ModelSwapperTest, NothingServedBeforeFirstReload) {
  ModelSwapper swapper(model_path_, {});
  EXPECT_EQ(swapper.Acquire(), nullptr);
  EXPECT_EQ(swapper.generation(), 0u);
  EXPECT_FALSE(swapper.watching());
}

TEST_F(ModelSwapperTest, InitialReloadPublishesGenerationOne) {
  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());
  const auto model = swapper.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->generation, 1u);
  EXPECT_EQ(model->service.num_users(), kUsers);

  ScoreRequest request;
  request.candidate = 9;
  request.seeds = {1, 2, 3};
  const Result<ScoreResult> score = model->service.ScoreActivation(request);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score.value().score, ExpectedScore(1, request.seeds, 9));
}

TEST_F(ModelSwapperTest, FailedReloadKeepsOldModelServing) {
  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());

  // Clobber the file with garbage: the reload fails, the old model stays.
  ASSERT_TRUE(WriteFileAtomic(model_path_, "definitely not a model").ok());
  EXPECT_FALSE(swapper.Reload().ok());
  const auto model = swapper.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->generation, 1u);
  ScoreRequest request;
  request.candidate = 4;
  request.seeds = {7};
  EXPECT_TRUE(model->service.ScoreActivation(request).ok());

  // A repaired file swaps in and bumps past the failed attempt.
  ASSERT_TRUE(SaveModel(model_path_, 2).ok());
  ASSERT_TRUE(swapper.Reload().ok());
  EXPECT_EQ(swapper.generation(), 2u);
}

TEST_F(ModelSwapperTest, InitialLoadFailureLeavesNothingPublished) {
  ModelSwapper swapper(model_path_, {});  // File does not exist.
  EXPECT_FALSE(swapper.Reload().ok());
  EXPECT_EQ(swapper.Acquire(), nullptr);
  EXPECT_EQ(swapper.generation(), 0u);
}

TEST_F(ModelSwapperTest, ConcurrentQueriesNeverErrorOrMixGenerations) {
  const std::vector<UserId> probe_seeds = {3, 11, 42};
  constexpr UserId kCandidate = 7;
  constexpr int kReloads = 6;

  // expected*[g] is written before generation g is published; the mutex
  // guarding the swap makes it visible to every reader that acquires
  // generation g.
  double expected_score[kReloads + 1] = {};
  double expected_top[kReloads + 1] = {};

  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  expected_score[1] = ExpectedScore(1, probe_seeds, kCandidate);
  expected_top[1] = ExpectedTopScore(1, probe_seeds);
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> mixed{0};
  std::atomic<uint64_t> requests{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t]() {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto model = swapper.Acquire();
        if (model == nullptr) {
          errors.fetch_add(1);
          continue;
        }
        if (t % 2 == 0) {
          ScoreRequest request;
          request.candidate = kCandidate;
          request.seeds = probe_seeds;
          const Result<ScoreResult> got =
              model->service.ScoreActivation(request);
          if (!got.ok()) {
            errors.fetch_add(1);
          } else if (got.value().score !=
                     expected_score[model->generation]) {
            // A score from one model stamped with another model's
            // generation — the swap tore.
            mixed.fetch_add(1);
          }
        } else {
          TopKRequest request;
          request.seeds = probe_seeds;
          request.k = 5;
          const Result<TopKResult> got = model->service.TopK(request);
          if (!got.ok() || got.value().entries.size() != 5u) {
            errors.fetch_add(1);
          } else if (got.value().entries[0].score !=
                     expected_top[model->generation]) {
            mixed.fetch_add(1);
          }
        }
        requests.fetch_add(1);
      }
    });
  }

  for (int i = 2; i <= kReloads; ++i) {
    ASSERT_TRUE(SaveModel(model_path_, static_cast<uint64_t>(i)).ok());
    expected_score[i] = ExpectedScore(static_cast<uint64_t>(i), probe_seeds,
                                      kCandidate);
    expected_top[i] = ExpectedTopScore(static_cast<uint64_t>(i),
                                       probe_seeds);
    ASSERT_TRUE(swapper.Reload().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mixed.load(), 0);
  EXPECT_GT(requests.load(), 0u);
  EXPECT_EQ(swapper.generation(), static_cast<uint64_t>(kReloads));
}

TEST_F(ModelSwapperTest, WatcherReloadsWhenTheFileChanges) {
  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());
  swapper.StartWatching(20);
  EXPECT_TRUE(swapper.watching());

  // Push a new model and force a distinct mtime (filesystem clocks can be
  // coarse enough to alias two quick writes).
  ASSERT_TRUE(SaveModel(model_path_, 2).ok());
  std::filesystem::last_write_time(
      model_path_, std::filesystem::file_time_type::clock::now() +
                       std::chrono::seconds(2));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (swapper.generation() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(swapper.generation(), 2u);

  swapper.StopWatching();
  EXPECT_FALSE(swapper.watching());
}

TEST_F(ModelSwapperTest, WatcherIgnoresAVanishedFile) {
  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());
  swapper.StartWatching(10);

  // Deleting the file (a push-in-progress rename window) must not trigger
  // a doomed reload; the old model keeps serving.
  std::filesystem::remove(model_path_);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(swapper.generation(), 1u);
  ASSERT_NE(swapper.Acquire(), nullptr);

  swapper.StopWatching();
}

TEST_F(ModelSwapperTest, SwapAccountsTheDoubleResidentTransient) {
  // Zeroed baseline so AccountedBytes() below is this swapper's tables
  // alone (earlier tests' services are destroyed by now).
  obs::MemoryRegistry::Default().Reset();

  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());
  // First load doubled nothing: no transient to report.
  EXPECT_EQ(swapper.last_swap_transient_bytes(), 0u);
  const uint64_t single = obs::MemoryRegistry::Default().AccountedBytes();
  ASSERT_GT(single, 0u) << "a resident model must account its tables";

  ASSERT_TRUE(SaveModel(model_path_, 2).ok());
  ASSERT_TRUE(swapper.Reload().ok());
  // While the swap warmed generation 2, generation 1 was still serving:
  // the recorded peak must exceed single residency.
  EXPECT_GT(swapper.last_swap_transient_bytes(), single);
  EXPECT_GE(swapper.peak_swap_transient_bytes(),
            swapper.last_swap_transient_bytes());
  // And after publication the old tables were freed — steady state is
  // back below the transient peak.
  EXPECT_LT(obs::MemoryRegistry::Default().AccountedBytes(),
            swapper.last_swap_transient_bytes());
}

TEST_F(ModelSwapperTest, BudgetPreflightRefusesADoomedSwap) {
  obs::MemoryRegistry::Default().Reset();
  obs::SetMemoryBudget({0, 0});

  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  ModelSwapper swapper(model_path_, {});
  ASSERT_TRUE(swapper.Reload().ok());
  const uint64_t single = obs::MemoryRegistry::Default().AccountedBytes();
  ASSERT_GT(single, 0u);

  // A budget that admits one resident model but not two: the preflight
  // must refuse before loading, and the old model must keep serving.
  obs::SetMemoryBudget({single + single / 2, 0});
  ASSERT_TRUE(SaveModel(model_path_, 2).ok());
  const Status refused = swapper.Reload();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(swapper.generation(), 1u);
  ASSERT_NE(swapper.Acquire(), nullptr);

  // Lifting the budget lets the same swap through.
  obs::SetMemoryBudget({0, 0});
  ASSERT_TRUE(swapper.Reload().ok());
  EXPECT_EQ(swapper.generation(), 2u);
}

TEST_F(ModelSwapperTest, Int8PreflightBudgetsTheFp64LoadPeak) {
  obs::MemoryRegistry::Default().Reset();
  obs::SetMemoryBudget({0, 0});

  // dim 64: an fp64 row is 512 bytes against the int8 row's 64, so the
  // two tables differ enough to tell apart.
  ASSERT_TRUE(SaveModel(model_path_, 1, 64).ok());
  ServiceOptions options;
  options.quantize = QuantMode::kInt8;
  ModelSwapper swapper(model_path_, options);
  ASSERT_TRUE(swapper.Reload().ok());
  const auto model = swapper.Acquire();
  ASSERT_NE(model, nullptr);
  // Only the int8 table stays resident.
  const uint64_t resident = obs::MemoryRegistry::Default().AccountedBytes();
  EXPECT_EQ(resident, model->service.AccountedBytes());
  EXPECT_GT(model->service.LoadPeakBytes(), 2 * resident)
      << "every load reads the fp64 table before freeing it";

  // Room for the resident table plus a second int8 table, but not for the
  // fp64 + int8 peak the next load goes through: refused up front.
  obs::SetMemoryBudget({3 * resident, 0});
  ASSERT_TRUE(SaveModel(model_path_, 2, 64).ok());
  const Status refused = swapper.Reload();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(swapper.generation(), 1u);

  obs::SetMemoryBudget({0, 0});
  ASSERT_TRUE(swapper.Reload().ok());
  EXPECT_EQ(swapper.generation(), 2u);
}

TEST_F(ModelSwapperTest, DestructorStopsAnActiveWatcher) {
  ASSERT_TRUE(SaveModel(model_path_, 1).ok());
  {
    ModelSwapper swapper(model_path_, {});
    ASSERT_TRUE(swapper.Reload().ok());
    swapper.StartWatching(10);
  }  // Must join cleanly; TSan would flag a leaked racing thread.
}

}  // namespace
}  // namespace serve
}  // namespace inf2vec
