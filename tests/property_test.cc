// Cross-module property suites: invariants that must hold for any seed and
// any world profile, exercised with parameterized sweeps.

#include <cmath>
#include <cstdint>
#include <set>
#include <type_traits>

#include <gtest/gtest.h>

#include "baselines/ic_baseline.h"
#include "core/inf2vec_model.h"
#include "diffusion/influence_pairs.h"
#include "diffusion/propagation_network.h"
#include "eval/activation_task.h"
#include "eval/metrics.h"
#include "synth/world_generator.h"

namespace inf2vec {
namespace {

// gtest names each instantiation after the raw bytes of its parameter, so
// the struct carries explicit zero bytes where the compiler would otherwise
// leave padding: uninitialised padding put stale heap bytes into the test
// names, and they changed from one run to the next.
struct WorldCase {
  uint64_t seed;
  bool flickr;
  uint8_t zero_pad[7] = {};
};
static_assert(std::has_unique_object_representations_v<WorldCase>,
              "WorldCase must have no implicit padding");

class WorldPropertyTest : public ::testing::TestWithParam<WorldCase> {
 protected:
  synth::World MakeWorld() {
    synth::WorldProfile profile = GetParam().flickr
                                      ? synth::WorldProfile::FlickrLike()
                                      : synth::WorldProfile::DiggLike();
    profile.num_users = 250;
    profile.num_items = 60;
    Rng rng(GetParam().seed);
    auto world = synth::GenerateWorld(profile, rng);
    EXPECT_TRUE(world.ok());
    return std::move(world).value();
  }
};

TEST_P(WorldPropertyTest, InfluencePairsRespectDefinitionOne) {
  const synth::World w = MakeWorld();
  for (const DiffusionEpisode& e : w.log.episodes()) {
    std::unordered_map<UserId, Timestamp> adopted_at;
    for (const Adoption& a : e.adoptions()) adopted_at.emplace(a.user, a.time);
    for (const InfluencePair& p : ExtractInfluencePairs(w.graph, e)) {
      ASSERT_TRUE(w.graph.HasEdge(p.source, p.target));
      ASSERT_LT(adopted_at.at(p.source), adopted_at.at(p.target));
    }
  }
}

TEST_P(WorldPropertyTest, PropagationNetworksAreAlwaysAcyclic) {
  const synth::World w = MakeWorld();
  for (const DiffusionEpisode& e : w.log.episodes()) {
    const PropagationNetwork net(w.graph, e);
    ASSERT_TRUE(net.IsAcyclic());
    ASSERT_LE(net.num_edges(), ExtractInfluencePairs(w.graph, e).size());
  }
}

TEST_P(WorldPropertyTest, StProbabilitiesAreValidProbabilities) {
  const synth::World w = MakeWorld();
  const IcBaselineModel st = CreateStaticModel(w.graph, w.log, 1);
  for (uint64_t e = 0; e < w.graph.num_edges(); ++e) {
    ASSERT_GE(st.probs().Get(e), 0.0);
    ASSERT_LE(st.probs().Get(e), 1.0);
  }
}

TEST_P(WorldPropertyTest, CorpusPairsStayInUserSpace) {
  const synth::World w = MakeWorld();
  ContextOptions opts;
  opts.length = 12;
  const InfluenceCorpus corpus = BuildInfluenceCorpus(
      w.graph, w.log, opts, w.graph.num_users(),
      CorpusBuildOptions{.seed = GetParam().seed + 1});
  for (const auto& [u, v] : corpus.pairs) {
    ASSERT_LT(u, w.graph.num_users());
    ASSERT_LT(v, w.graph.num_users());
    ASSERT_NE(u, v);
  }
}

TEST_P(WorldPropertyTest, ActivationCasesAreConsistent) {
  const synth::World w = MakeWorld();
  for (const DiffusionEpisode& e : w.log.episodes()) {
    std::set<UserId> adopters;
    for (const Adoption& a : e.adoptions()) adopters.insert(a.user);
    for (const ActivationCase& c : BuildActivationCases(w.graph, e)) {
      ASSERT_FALSE(c.influencers.empty());
      ASSERT_EQ(c.activated, adopters.contains(c.candidate));
      for (UserId u : c.influencers) {
        ASSERT_TRUE(adopters.contains(u));
        ASSERT_TRUE(w.graph.HasEdge(u, c.candidate));
      }
    }
  }
}

TEST_P(WorldPropertyTest, MetricsStayInUnitRange) {
  const synth::World w = MakeWorld();
  const IcBaselineModel de = CreateDegreeModel(w.graph, 10);
  const RankingMetrics m = EvaluateActivation(de, w.graph, w.log);
  EXPECT_GE(m.auc, 0.0);
  EXPECT_LE(m.auc, 1.0);
  EXPECT_GE(m.map, 0.0);
  EXPECT_LE(m.map, 1.0);
  EXPECT_GE(m.p10, 0.0);
  EXPECT_LE(m.p10, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, WorldPropertyTest,
    ::testing::Values(WorldCase{1, false}, WorldCase{2, false},
                      WorldCase{3, true}, WorldCase{4, true}));

class MetricInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricInvarianceTest, AucInvariantUnderMonotoneTransforms) {
  Rng rng(GetParam());
  RankedQuery q;
  for (int i = 0; i < 50; ++i) {
    q.scores.push_back(rng.Gaussian());
    q.labels.push_back(rng.Bernoulli(0.3));
  }
  RankedQuery scaled = q;
  for (double& s : scaled.scores) s = 3.0 * s + 10.0;
  RankedQuery exped = q;
  for (double& s : exped.scores) s = std::exp(s);
  EXPECT_DOUBLE_EQ(AucByRank(q), AucByRank(scaled));
  EXPECT_NEAR(AucByRank(q), AucByRank(exped), 1e-12);
  EXPECT_NEAR(AveragePrecision(q), AveragePrecision(exped), 1e-12);
}

TEST_P(MetricInvarianceTest, PrecisionAtNIsMonotoneInRelevantDepth) {
  // A perfect ranking's P@N is non-increasing in N.
  Rng rng(GetParam() + 100);
  RankedQuery q;
  const int num_pos = 5;
  for (int i = 0; i < 40; ++i) {
    const bool pos = i < num_pos;
    q.labels.push_back(pos);
    q.scores.push_back(pos ? 100.0 - i : 10.0 - i);
  }
  double prev = 1.0;
  for (size_t n : {1u, 2u, 5u, 10u, 20u, 40u}) {
    const double p = PrecisionAtN(q, n);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricInvarianceTest,
                         ::testing::Values(7, 8, 9));

class SgdDimensionTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SgdDimensionTest, TrainingImprovesObjectiveAtAnyDimension) {
  const uint32_t dim = GetParam();
  EmbeddingStore store(6, dim);
  Rng rng(5);
  store.InitPaperDefault(rng);
  const NegativeSampler sampler = NegativeSampler::CreateUniform(6);
  SgdOptions opts;
  opts.learning_rate = 0.05;
  opts.num_negatives = 2;
  SgdTrainer trainer(&store, &sampler, opts);
  const std::vector<UserId> negs = {3, 4};
  const double before = trainer.PairObjective(0, 1, negs);
  for (int i = 0; i < 300; ++i) trainer.TrainPair(0, 1, rng);
  EXPECT_GT(trainer.PairObjective(0, 1, negs), before);
  for (double x : store.Source(0)) EXPECT_TRUE(std::isfinite(x));
}

INSTANTIATE_TEST_SUITE_P(Dims, SgdDimensionTest,
                         ::testing::Values(1, 3, 16, 64));

}  // namespace
}  // namespace inf2vec
