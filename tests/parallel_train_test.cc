// Determinism and equivalence guarantees of the parallel training
// pipeline: num_threads = 1 must stay bit-identical to the pre-parallel
// serial implementation, parallel corpus generation must be reproducible
// for a fixed thread count, and Hogwild training must reach the serial
// objective within tolerance.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/mf_bpr.h"
#include "baselines/node2vec.h"
#include "core/inf2vec_model.h"
#include "synth/world_generator.h"
#include "util/thread_pool.h"

namespace inf2vec {
namespace {

synth::World QuickstartWorld(uint64_t seed) {
  synth::WorldProfile profile = synth::WorldProfile::DiggLike();
  profile.num_users = 300;
  profile.num_items = 60;
  profile.mean_out_degree = 6.0;
  Rng rng(seed);
  Result<synth::World> world = synth::GenerateWorld(profile, rng);
  EXPECT_TRUE(world.ok());
  return std::move(world).value();
}

/// The exact SGD driver loop this library shipped before the Hogwild
/// pipeline existed: one master RNG seeded from the config drives init,
/// shuffles and every TrainPair draw, strictly in corpus order. The
/// num_threads = 1 path of TrainFromCorpus must reproduce this (and
/// therefore any model trained by a pre-parallel build) bit for bit.
EmbeddingStore LegacySerialReference(const InfluenceCorpus& corpus,
                                     uint32_t num_users,
                                     const Inf2vecConfig& config) {
  Rng rng(config.seed);
  EmbeddingStore store(num_users, config.dim);
  store.InitPaperDefault(rng);
  Result<NegativeSampler> sampler = NegativeSampler::Create(
      config.negative_kind, num_users, corpus.target_frequencies);
  EXPECT_TRUE(sampler.ok());
  SgdTrainer trainer(&store, &sampler.value(), config.sgd);
  std::vector<std::pair<UserId, UserId>> pairs = corpus.pairs;
  for (uint32_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle_pairs) rng.Shuffle(pairs);
    for (const auto& [u, v] : pairs) trainer.TrainPair(u, v, rng);
  }
  return store;
}

TEST(ParallelTrainTest, SerialPathIsBitIdenticalToLegacyImplementation) {
  const synth::World world = QuickstartWorld(31);
  Inf2vecConfig config;
  config.dim = 12;
  config.epochs = 3;
  config.context.length = 10;
  config.seed = 99;
  config.num_threads = 1;

  const InfluenceCorpus corpus = BuildInfluenceCorpus(
      world.graph, world.log, config.context, world.graph.num_users(),
      CorpusBuildOptions{.seed = 5});
  const EmbeddingStore reference =
      LegacySerialReference(corpus, world.graph.num_users(), config);

  Result<Inf2vecModel> model = Inf2vecModel::TrainFromCorpus(
      corpus, world.graph.num_users(), config, nullptr);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model.value().embeddings(), reference);
}

TEST(ParallelTrainTest, SerialObjectiveRequestDoesNotPerturbTraining) {
  // want_objective toggles std::log accumulation only; the trained store
  // and the RNG stream must be unaffected.
  const synth::World world = QuickstartWorld(32);
  Inf2vecConfig config;
  config.dim = 8;
  config.epochs = 2;
  config.context.length = 8;
  config.num_threads = 1;
  const InfluenceCorpus corpus = BuildInfluenceCorpus(
      world.graph, world.log, config.context, world.graph.num_users(),
      CorpusBuildOptions{.seed = 6});
  std::vector<double> objectives;
  Result<Inf2vecModel> with = Inf2vecModel::TrainFromCorpus(
      corpus, world.graph.num_users(), config, &objectives);
  Result<Inf2vecModel> without = Inf2vecModel::TrainFromCorpus(
      corpus, world.graph.num_users(), config, nullptr);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with.value().embeddings(), without.value().embeddings());
  ASSERT_EQ(objectives.size(), 2u);
  for (double obj : objectives) EXPECT_TRUE(std::isfinite(obj));
}

TEST(ParallelTrainTest, ParallelCorpusIsDeterministicForFixedThreadCount) {
  const synth::World world = QuickstartWorld(33);
  ContextOptions options;
  options.length = 12;
  const uint64_t seed = 123;

  ThreadPool pool_a(3);
  const InfluenceCorpus a = BuildInfluenceCorpus(
      world.graph, world.log, options, world.graph.num_users(),
      CorpusBuildOptions{.seed = seed, .pool = &pool_a});
  ThreadPool pool_b(3);
  const InfluenceCorpus b = BuildInfluenceCorpus(
      world.graph, world.log, options, world.graph.num_users(),
      CorpusBuildOptions{.seed = seed, .pool = &pool_b});
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.target_frequencies, b.target_frequencies);
  EXPECT_EQ(a.num_tuples, b.num_tuples);
  EXPECT_GT(a.pairs.size(), 0u);

  // Same world through the serial builder: the parallel corpus carries
  // different RNG streams, so pair-for-pair equality is not expected, but
  // the corpus statistics must agree (same episodes, same Algorithm 1).
  const InfluenceCorpus serial = BuildInfluenceCorpus(
      world.graph, world.log, options, world.graph.num_users(),
      CorpusBuildOptions{.seed = ThreadPool::ShardSeed(seed, 0)});
  EXPECT_EQ(a.num_tuples, serial.num_tuples);
}

TEST(ParallelTrainTest, HogwildObjectiveMatchesSerialWithinTolerance) {
  const synth::World world = QuickstartWorld(34);
  Inf2vecConfig config;
  config.dim = 16;
  config.epochs = 5;
  config.context.length = 10;

  const InfluenceCorpus corpus = BuildInfluenceCorpus(
      world.graph, world.log, config.context, world.graph.num_users(),
      CorpusBuildOptions{.seed = 7});

  config.num_threads = 1;
  std::vector<double> serial_objectives;
  Result<Inf2vecModel> serial = Inf2vecModel::TrainFromCorpus(
      corpus, world.graph.num_users(), config, &serial_objectives);
  ASSERT_TRUE(serial.ok());

  config.num_threads = 4;
  std::vector<double> hogwild_objectives;
  Result<Inf2vecModel> hogwild = Inf2vecModel::TrainFromCorpus(
      corpus, world.graph.num_users(), config, &hogwild_objectives);
  ASSERT_TRUE(hogwild.ok());

  ASSERT_EQ(serial_objectives.size(), hogwild_objectives.size());
  const double serial_final = serial_objectives.back();
  const double hogwild_final = hogwild_objectives.back();
  EXPECT_TRUE(std::isfinite(hogwild_final));
  // Acceptance bound: final epoch objective within 2% of serial.
  EXPECT_LT(std::fabs(hogwild_final - serial_final) /
                std::fabs(serial_final),
            0.02)
      << "serial " << serial_final << " vs hogwild " << hogwild_final;
}

TEST(ParallelTrainTest, HogwildShardRngsDrawExactlyTheirRangesNegatives) {
  // Each Hogwild worker draws the negatives of its own ParallelFor range
  // and nothing past it, so the shard RNG states a checkpoint stores equal
  // a replay of SampleMany over those ranges from the ShardSeed streams.
  const synth::World world = QuickstartWorld(37);
  Inf2vecConfig config;
  config.dim = 8;
  config.epochs = 2;
  config.context.length = 8;
  config.seed = 77;
  config.num_threads = 4;
  const InfluenceCorpus corpus = BuildInfluenceCorpus(
      world.graph, world.log, config.context, world.graph.num_users(),
      CorpusBuildOptions{.seed = 8});

  std::vector<std::pair<UserId, UserId>> epoch1_pairs;
  std::vector<RngState> epoch1_shard_rngs;
  config.checkpoint_callback = [&](const TrainCheckpointView& view) {
    if (view.epochs_completed == 1) {
      epoch1_pairs = *view.pairs;
      epoch1_shard_rngs = view.shard_rngs;
    }
    return Status::OK();
  };
  ASSERT_TRUE(Inf2vecModel::TrainFromCorpus(corpus, world.graph.num_users(),
                                            config, nullptr)
                  .ok());
  ASSERT_EQ(epoch1_shard_rngs.size(), 4u);
  ASSERT_EQ(epoch1_pairs.size(), corpus.pairs.size());

  Result<NegativeSampler> sampler = NegativeSampler::Create(
      config.negative_kind, world.graph.num_users(),
      corpus.target_frequencies);
  ASSERT_TRUE(sampler.ok());
  std::vector<std::pair<size_t, size_t>> ranges(4);
  ThreadPool(4).ParallelFor(0, epoch1_pairs.size(),
                            [&](uint32_t shard, size_t begin, size_t end) {
                              ranges[shard] = {begin, end};
                            });
  std::vector<UserId> negatives;
  for (uint32_t s = 0; s < 4; ++s) {
    Rng replay(ThreadPool::ShardSeed(config.seed, s));
    for (size_t i = ranges[s].first; i < ranges[s].second; ++i) {
      sampler.value().SampleMany(replay, epoch1_pairs[i].first,
                                 epoch1_pairs[i].second,
                                 config.sgd.num_negatives, &negatives);
    }
    EXPECT_EQ(replay.state(), epoch1_shard_rngs[s]) << "shard " << s;
  }
}

TEST(ParallelTrainTest, EndToEndParallelTrainingLearnsFiniteEmbeddings) {
  const synth::World world = QuickstartWorld(35);
  Inf2vecConfig config;
  config.dim = 12;
  config.epochs = 3;
  config.context.length = 10;
  config.num_threads = 3;
  Result<Inf2vecModel> model =
      Inf2vecModel::Train(world.graph, world.log, config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(model.value().config().num_threads, 3u);
  const EmbeddingStore& store = model.value().embeddings();
  for (UserId u = 0; u < store.num_users(); ++u) {
    for (double x : store.Source(u)) EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(ParallelTrainTest, BaselinesTrainHogwildToFiniteEmbeddings) {
  // The eval-harness baselines share the pool wiring: num_threads > 1
  // must train cleanly, and num_threads = 1 must stay their serial path.
  const synth::World world = QuickstartWorld(36);

  MfOptions mf;
  mf.dim = 8;
  mf.epochs = 2;
  mf.num_threads = 3;
  Result<MfBprModel> mf_model =
      MfBprModel::Train(world.graph.num_users(), world.log, mf);
  ASSERT_TRUE(mf_model.ok()) << mf_model.status().ToString();

  Node2vecOptions n2v;
  n2v.dim = 8;
  n2v.epochs = 1;
  n2v.walks_per_node = 2;
  n2v.walk_length = 8;
  n2v.num_threads = 3;
  Result<Node2vecModel> n2v_model = Node2vecModel::Train(world.graph, n2v);
  ASSERT_TRUE(n2v_model.ok()) << n2v_model.status().ToString();

  for (UserId u = 0; u < world.graph.num_users(); ++u) {
    for (double x : mf_model.value().embeddings().Source(u)) {
      ASSERT_TRUE(std::isfinite(x));
    }
    for (double x : n2v_model.value().embeddings().Source(u)) {
      ASSERT_TRUE(std::isfinite(x));
    }
  }
}

}  // namespace
}  // namespace inf2vec
