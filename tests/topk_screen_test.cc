// The exact centroid screen behind Ave/Sum top-k (ServingTable::MakeScreen,
// InfluenceService::ScanTopK): every answer must equal a brute-force full
// sort bit for bit, on both kernel backends, at near ties where the
// screen's order disagrees with the exact order, and for transported
// shard blocks whose rows are huge, zero or subnormal. Labeled `kernels`
// so the AVX2-off build of tools/scalar_kernel_check.sh checks the bound
// against the scalar summation order too.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/embedding_predictor.h"
#include "embedding/model_io.h"
#include "embedding/quantized_store.h"
#include "kernels/kernels.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/influence_service.h"
#include "shard/shard_service.h"
#include "shard/shard_split.h"
#include "shard/wire.h"
#include "util/rng.h"

namespace inf2vec {
namespace serve {
namespace {

constexpr Aggregation kAggregations[] = {Aggregation::kAve, Aggregation::kSum,
                                         Aggregation::kMax,
                                         Aggregation::kLatest};

/// The backends this build and CPU can run: scalar always, AVX2 when
/// compiled in and supported.
std::vector<kernels::Isa> Backends() {
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  if (kernels::BestIsa() == kernels::Isa::kAvx2) {
    isas.push_back(kernels::Isa::kAvx2);
  }
  return isas;
}

/// Pins one backend for a scope, then restores the CPUID default.
class ScopedIsa {
 public:
  explicit ScopedIsa(kernels::Isa isa) {
    EXPECT_TRUE(kernels::SetActiveIsa(isa));
  }
  ~ScopedIsa() { kernels::ResetIsaForTest(); }
};

/// Records the attributes of the last kernel_scan span on this thread.
class ScanSpanCapture : public obs::TraceSink {
 public:
  void OnSpanEnd(const obs::TraceEvent& event) override {
    if (event.name == "kernel_scan") args_ = event.args;
  }

  std::string Attr(const std::string& key) const {
    for (const auto& [name, value] : args_) {
      if (name == key) return value;
    }
    ADD_FAILURE() << "kernel_scan has no attribute " << key;
    return "";
  }
  uint64_t Count(const std::string& key) const {
    return std::stoull(Attr(key));
  }

 private:
  std::vector<std::pair<std::string, std::string>> args_;
};

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

InfluenceService MakeService(
    const EmbeddingStore& store, QuantMode quantize = QuantMode::kNone,
    obs::MetricsRegistry* registry = &obs::MetricsRegistry::Default()) {
  ModelArtifact artifact;
  artifact.store = store;
  artifact.metadata.aggregation = "Ave";
  artifact.metadata.dim = store.dim();
  ServiceOptions options;
  options.quantize = quantize;
  options.scan_block = 64;  // Several deadline blocks even on small tables.
  Result<InfluenceService> service =
      InfluenceService::FromArtifact(std::move(artifact), std::move(options),
                                     registry);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(service).value();
}

/// Brute force: every candidate in [0, users) outside `excluded`, scored
/// by `score`, fully sorted by BetterThan, cut to k.
std::vector<TopKEntry> BruteForce(uint32_t users, uint32_t k,
                                  const std::vector<UserId>& excluded,
                                  const std::function<double(UserId)>& score) {
  std::vector<TopKEntry> all;
  for (UserId v = 0; v < users; ++v) {
    if (std::find(excluded.begin(), excluded.end(), v) != excluded.end()) {
      continue;
    }
    all.push_back({v, score(v)});
  }
  std::sort(all.begin(), all.end(), BetterThan);
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectBitIdentical(const std::vector<TopKEntry>& got,
                        const std::vector<TopKEntry>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].user, want[i].user) << where << " rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
              std::bit_cast<uint64_t>(want[i].score))
        << where << " rank " << i << ": " << got[i].score << " vs "
        << want[i].score;
  }
}

// Exact scores at the cut differ by about one ulp, and the screen ranks
// some candidate outside the exact top k above one inside it, so only the
// certified bound keeps the answer exact: with it forced to zero the
// screen drops true winners.
TEST(TopKScreenTest, NearTieFixtureMatchesBruteForceBitForBit) {
  constexpr uint32_t kDim = 8;
  constexpr uint32_t kSeeds = 5;
  constexpr uint32_t kNear = 256;
  constexpr uint32_t kFar = 256;
  constexpr uint32_t kK = 10;
  const uint32_t users = kSeeds + kNear + kFar;
  EmbeddingStore store(users, kDim);
  Rng rng(2042);
  std::vector<UserId> seeds;
  for (UserId u = 0; u < kSeeds; ++u) {
    for (double& x : store.Source(u)) x = rng.UniformDouble(-1.0, 1.0);
    store.mutable_source_bias(u) = rng.UniformDouble(-0.5, 0.5);
    seeds.push_back(u);
  }
  // Near-tie candidates: one shared target row and bias, each moved by a
  // few ulps per coordinate. Far candidates: generic rows, sunk by their
  // bias. Their ids interleave at random.
  std::vector<double> base(kDim);
  for (double& x : base) x = rng.UniformDouble(-1.0, 1.0);
  const auto ulps = [&rng](double x, int64_t max_ulps) {
    const double ulp = std::nextafter(std::fabs(x), 1e300) - std::fabs(x);
    return x + static_cast<double>(rng.UniformInt(-max_ulps, max_ulps)) * ulp;
  };
  std::vector<UserId> candidates(kNear + kFar);
  for (uint32_t i = 0; i < candidates.size(); ++i) candidates[i] = kSeeds + i;
  rng.Shuffle(candidates);
  std::vector<bool> near(users, false);
  for (uint32_t i = 0; i < candidates.size(); ++i) {
    const UserId v = candidates[i];
    if (i < kNear) {
      near[v] = true;
      for (uint32_t d = 0; d < kDim; ++d) store.Target(v)[d] = ulps(base[d], 4);
      store.mutable_target_bias(v) = ulps(0.3, 8);
    } else {
      for (double& x : store.Target(v)) x = rng.UniformDouble(-1.0, 1.0);
      store.mutable_target_bias(v) = -20.0;
    }
  }
  obs::MetricsRegistry registry;
  const InfluenceService service =
      MakeService(store, QuantMode::kNone, &registry);
  const SeedBlock block = GatherSeedBlock(service.table(), seeds);
  obs::EnableMetrics(true);
  uint64_t rescored_total = 0;

  for (const kernels::Isa isa : Backends()) {
    SCOPED_TRACE(kernels::IsaName(isa));
    const ScopedIsa pinned(isa);
    const std::vector<TopKEntry> want =
        BruteForce(users, kK + 1, seeds, [&](UserId v) {
          return service.table().Score(block, v, Aggregation::kAve);
        });
    ASSERT_EQ(want.size(), kK + 1);

    // Preconditions that make this a near-tie fixture on this backend.
    const double kth = want[kK - 1].score;
    EXPECT_LE(kth - want[kK].score,
              2.0 * (std::nextafter(std::fabs(kth), 1e300) - std::fabs(kth)));
    const std::optional<CentroidScreen> screen =
        service.table().MakeScreen(block, Aggregation::kAve);
    ASSERT_TRUE(screen.has_value());
    EXPECT_GT(screen->epsilon, 0.0);
    std::vector<double> screened(users);
    service.table().ScreenRange(*screen, 0, users, screened.data());
    double lowest_winner = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < kK; ++i) {
      lowest_winner = std::min(lowest_winner, screened[want[i].user]);
    }
    bool disagrees = false;
    for (UserId v = kSeeds; v < users; ++v) {
      const bool winner =
          std::any_of(want.begin(), want.begin() + kK,
                      [v](const TopKEntry& e) { return e.user == v; });
      if (near[v] && !winner && screened[v] > lowest_winner) disagrees = true;
    }
    EXPECT_TRUE(disagrees)
        << "the screen's order agrees with the exact order at the cut";

    ScanSpanCapture capture;
    const obs::ScopedTraceSink sink(&capture);
    TopKRequest request;
    request.seeds = seeds;
    request.k = kK;
    request.aggregation = Aggregation::kAve;
    const Result<TopKResult> got = service.TopK(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(got.value().entries,
                       std::vector<TopKEntry>(want.begin(), want.begin() + kK),
                       "near ties");
    EXPECT_EQ(got.value().scanned, kNear + kFar);
    EXPECT_EQ(capture.Attr("screened"), "true");
    const uint64_t rescored = capture.Count("rescored");
    EXPECT_GT(rescored, kK);
    EXPECT_LT(rescored, kNear + kFar) << "the far candidates were not pruned";
    EXPECT_EQ(capture.Count("dots"), users + rescored * kSeeds);
    rescored_total += rescored;
  }
  EXPECT_EQ(registry.GetCounter("serve.topk.rescored")->Value(),
            rescored_total);
  obs::EnableMetrics(false);
}

// TopK against EmbeddingPredictor's Eq. 7 over every candidate: dims 10
// and 50, seed sets of 1 to 200 ids drawn with replacement, k from 1 to
// more than the candidates, all four aggregators, seeds in or out, and
// both backends.
TEST(TopKScreenTest, TopKMatchesBruteForceAcrossShapes) {
  constexpr uint32_t kUsers = 300;
  for (const uint32_t dim : {10u, 50u}) {
    const EmbeddingStore store = MakeStore(kUsers, dim, 40 + dim);
    const InfluenceService service = MakeService(store);
    Rng rng(dim);
    for (const size_t num_seeds : {1, 2, 13, 64, 200}) {
      std::vector<UserId> seeds;
      for (size_t i = 0; i < num_seeds; ++i) {
        seeds.push_back(static_cast<UserId>(rng.UniformU64(kUsers)));
      }
      for (const kernels::Isa isa : Backends()) {
        const ScopedIsa pinned(isa);
        for (const Aggregation aggregation : kAggregations) {
          const EmbeddingPredictor predictor("ref", &store, aggregation);
          std::vector<double> exact(kUsers);
          for (UserId v = 0; v < kUsers; ++v) {
            exact[v] = predictor.ScoreActivation(v, seeds);
          }
          for (const bool include_seeds : {false, true}) {
            for (const uint32_t k : {1u, 10u, kUsers + 100}) {
              const std::string where =
                  "dim " + std::to_string(dim) + " seeds " +
                  std::to_string(num_seeds) + " " + kernels::IsaName(isa) +
                  " " + AggregationName(aggregation) + " include " +
                  std::to_string(include_seeds) + " k " + std::to_string(k);
              TopKRequest request;
              request.seeds = seeds;
              request.k = k;
              request.aggregation = aggregation;
              request.include_seeds = include_seeds;
              const Result<TopKResult> got = service.TopK(request);
              ASSERT_TRUE(got.ok()) << where << got.status().ToString();
              ExpectBitIdentical(
                  got.value().entries,
                  BruteForce(kUsers, k,
                             include_seeds ? std::vector<UserId>() : seeds,
                             [&exact](UserId v) { return exact[v]; }),
                  where);
            }
          }
        }
      }
    }
  }
}

// Latest keeps only the last seed's term, and now computes only that
// one, in both table formats.
TEST(TopKScreenTest, LatestTopKMatchesBruteForce) {
  const EmbeddingStore store = MakeStore(120, 12, 7);
  const std::vector<UserId> seeds = {9, 40, 9, 77, 3};
  const QuantizedEmbeddingStore quantized =
      QuantizedEmbeddingStore::FromStore(store);
  const std::function<double(UserId)> fp64 = [&](UserId v) {
    return store.Score(seeds.back(), v);
  };
  const std::function<double(UserId)> int8 = [&](UserId v) {
    return quantized.Score(seeds.back(), v);
  };
  for (const QuantMode mode : {QuantMode::kNone, QuantMode::kInt8}) {
    const InfluenceService service = MakeService(store, mode);
    TopKRequest request;
    request.seeds = seeds;
    request.k = 15;
    request.aggregation = Aggregation::kLatest;
    const Result<TopKResult> got = service.TopK(request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(got.value().entries,
                       BruteForce(store.num_users(), request.k, seeds,
                                  mode == QuantMode::kNone ? fp64 : int8),
                       QuantModeName(mode));
  }
}

// A shard screens transported blocks: rows of +-1e300, zero and subnormal
// rows, a bias that swamps every other term, and rows so large that the
// bound would overflow (the screen then stands down). Each answers
// exactly as the unscreened scan over the shard's slice does.
TEST(TopKScreenTest, ShardBlocksWithExtremeRowsMatchUnscreenedScan) {
  constexpr uint32_t kDim = 10;
  constexpr uint32_t kSeeds = 4;
  const EmbeddingStore full = MakeStore(400, kDim, 91);
  ModelMetadata metadata;
  metadata.aggregation = "Ave";
  metadata.dim = kDim;
  const std::string model_path =
      ::testing::TempDir() + "/topk_screen_shard.i2v";
  ASSERT_TRUE(SaveModelArtifact(full, metadata, model_path).ok());
  const std::string dir = ::testing::TempDir() + "/topk_screen_shard";
  std::filesystem::create_directories(dir);
  Result<std::vector<std::string>> paths =
      shard::SplitModelArtifact(model_path, dir, 2);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  Result<shard::ShardService> shard =
      shard::ShardService::Load(paths.value()[1], {});
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const InfluenceService& service = shard.value().service();
  const uint32_t users = service.num_users();

  Rng rng(5);
  const auto huge = [&rng](double scale) {
    return (rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.UniformDouble(0.5, 1.0) *
           scale;
  };
  const auto subnormal = [&rng]() {
    return static_cast<double>(rng.UniformInt(-1000, 1000)) * 0x1p-1074;
  };
  struct Case {
    std::string name;
    std::function<double(size_t seed, uint32_t d)> row;
    std::function<double(size_t seed)> bias;
    bool screened;
  };
  const auto normal_bias = [&rng](size_t) {
    return rng.UniformDouble(-0.2, 0.2);
  };
  const std::vector<Case> cases = {
      {"huge", [&](size_t, uint32_t) { return huge(1e300); }, normal_bias,
       true},
      {"zero", [](size_t, uint32_t) { return 0.0; }, normal_bias, true},
      {"subnormal", [&](size_t, uint32_t) { return subnormal(); },
       normal_bias, true},
      {"mixed",
       [&](size_t seed, uint32_t d) {
         switch (seed % 4) {
           case 0:
             return huge(1e300);
           case 1:
             return 0.0;
           case 2:
             return d % 2 == 0 ? subnormal() : 1e-310;
           default:
             return rng.UniformDouble(-0.5, 0.5);
         }
       },
       normal_bias, true},
      {"swamping_bias",
       [&](size_t, uint32_t) { return rng.UniformDouble(-0.5, 0.5); },
       [&](size_t seed) { return seed == 0 ? 1e300 : 0.1; }, true},
      {"near_overflow", [&](size_t, uint32_t) { return huge(3e306); },
       normal_bias, false},
  };

  for (const Case& c : cases) {
    SeedBlock block = SeedBlock::Shaped(QuantMode::kNone, kDim,
                                        {3, 250, 3, 399});  // Global ids.
    for (size_t i = 0; i < kSeeds; ++i) {
      for (uint32_t d = 0; d < kDim; ++d) {
        ASSERT_TRUE(block.SetElement(i, d, c.row(i, d)).ok());
      }
      block.biases[i] = c.bias(i);
    }
    // Through the wire, as a coordinator's scatter delivers it.
    shard::ShardTopKRequest wire;
    wire.block = block;
    Result<obs::JsonValue> json =
        obs::ParseJson(shard::ShardTopKRequestToJson(wire).Dump(0));
    ASSERT_TRUE(json.ok()) << json.status().ToString();
    Result<shard::ShardTopKRequest> decoded =
        shard::ShardTopKRequestFromJson(json.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const SeedBlock& transported = decoded.value().block;

    for (const kernels::Isa isa : Backends()) {
      const ScopedIsa pinned(isa);
      for (const Aggregation aggregation : kAggregations) {
        std::vector<double> unscreened(users);
        service.table().ScoreRange(transported, aggregation, 0, users,
                                   unscreened.data());
        for (const uint32_t k : {1u, 7u, users}) {
          const std::string where = c.name + " " + kernels::IsaName(isa) +
                                    " " + AggregationName(aggregation) +
                                    " k " + std::to_string(k);
          ScanSpanCapture capture;
          const obs::ScopedTraceSink sink(&capture);
          BlockTopKRequest request;
          request.k = k;
          request.aggregation = aggregation;
          request.exclude = {5};
          const Result<TopKResult> got =
              service.TopKWithBlock(transported, request);
          ASSERT_TRUE(got.ok()) << where << got.status().ToString();
          ExpectBitIdentical(got.value().entries,
                             BruteForce(users, k, {5},
                                        [&unscreened](UserId v) {
                                          return unscreened[v];
                                        }),
                             where);
          const bool linear = aggregation == Aggregation::kAve ||
                              aggregation == Aggregation::kSum;
          EXPECT_EQ(capture.Attr("screened"),
                    linear && c.screened ? "true" : "false")
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace inf2vec
