// Pins the scalar kernel backend to the exact bits the pre-kernel-layer
// implementation produced. The golden constants below were captured from
// the historical plain-loop code (EmbeddingStore::Score + SgdTrainer
// inner loops) BEFORE the kernel layer existed; any change to the scalar
// backend's accumulation order, to the padded-row RNG draw sequence, or
// to the trainer's kernel wiring shows up here as a bit mismatch.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/node2vec.h"
#include "embedding/embedding_store.h"
#include "embedding/negative_sampler.h"
#include "embedding/sgd_trainer.h"
#include "kernels/kernels.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace inf2vec {
namespace {

// dim 13 is deliberately not a multiple of the AVX2 width: the scalar
// pin must hold for remainder-lane shapes too.
constexpr uint32_t kUsers = 24;
constexpr uint32_t kDim = 13;

// Captured from the pre-kernel-layer scalar implementation (see file
// comment). Do not regenerate casually: a change here means the scalar
// path is no longer bit-identical to every previously trained model.
constexpr uint32_t kGoldenCrc = 0x3ed9a533u;
constexpr uint64_t kGoldenObjectiveBits = 0xc094e5e92d52b28cull;
constexpr uint64_t kGoldenScore311Bits = 0xbfc158413870429aull;
constexpr uint64_t kGoldenS50Bits = 0x3fb19680325bd461ull;
constexpr uint64_t kGoldenT1712Bits = 0xbf7b0e8065489d38ull;

// Captured from the serial Node2vec trainer before it moved onto the
// shared SGD epoch loop, RunSgdEpochs (walk corpus, per-epoch shuffle and
// every negative draw on one RNG). Same rule: do not regenerate casually.
constexpr uint32_t kGoldenNode2vecCrc = 0x11210bfcu;
constexpr uint64_t kGoldenNode2vecScore29Bits = 0xc0009572ad7cccaeull;

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

class ScalarReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(kernels::SetActiveIsa(kernels::Isa::kScalar));
  }
  void TearDown() override { kernels::ResetIsaForTest(); }
};

/// The frozen training recipe: 500 deterministic TrainPair steps over a
/// 24-user, dim-13 store with unigram^0.75 negatives.
double RunGoldenRecipe(EmbeddingStore* store) {
  Rng init_rng(7);
  store->InitPaperDefault(init_rng);

  std::vector<uint64_t> freqs(kUsers);
  for (uint32_t u = 0; u < kUsers; ++u) freqs[u] = 1 + (u % 5);
  Result<NegativeSampler> sampler = NegativeSampler::Create(
      NegativeSamplerKind::kUnigram075, kUsers, freqs);
  EXPECT_TRUE(sampler.ok());
  SgdOptions options;
  options.num_negatives = 3;
  SgdTrainer trainer(store, &sampler.value(), options);

  Rng train_rng(13);
  double objective = 0.0;
  for (uint32_t step = 0; step < 500; ++step) {
    const UserId u = static_cast<UserId>(step % kUsers);
    const UserId v = static_cast<UserId>((step * 7 + 3) % kUsers);
    if (u == v) continue;
    objective += trainer.TrainPair(u, v, train_rng);
  }
  return objective;
}

/// CRC over every parameter byte in a fixed traversal order (S rows, T
/// rows, then per-user source/target bias pairs).
uint32_t StoreCrc(const EmbeddingStore& store) {
  uint32_t crc = 0;
  for (UserId u = 0; u < store.num_users(); ++u) {
    crc = Crc32(store.Source(u).data(), sizeof(double) * store.dim(), crc);
  }
  for (UserId u = 0; u < store.num_users(); ++u) {
    crc = Crc32(store.Target(u).data(), sizeof(double) * store.dim(), crc);
  }
  for (UserId u = 0; u < store.num_users(); ++u) {
    const double b = store.source_bias(u);
    crc = Crc32(&b, sizeof(b), crc);
    const double t = store.target_bias(u);
    crc = Crc32(&t, sizeof(t), crc);
  }
  return crc;
}

TEST_F(ScalarReferenceTest, TrainingReproducesPreKernelBitsExactly) {
  EmbeddingStore store(kUsers, kDim);
  const double objective = RunGoldenRecipe(&store);

  EXPECT_EQ(StoreCrc(store), kGoldenCrc);
  EXPECT_EQ(Bits(objective), kGoldenObjectiveBits);
  EXPECT_EQ(Bits(store.Score(3, 11)), kGoldenScore311Bits);
  EXPECT_EQ(Bits(store.Source(5)[0]), kGoldenS50Bits);
  EXPECT_EQ(Bits(store.Target(17)[12]), kGoldenT1712Bits);
}

TEST_F(ScalarReferenceTest, Node2vecSerialTrainingReproducesPinnedBits) {
  // A 24-user ring with one chord per user: every node has a usable walk,
  // and the unigram^0.75 sampler sees uneven context frequencies.
  GraphBuilder builder(kUsers);
  for (UserId u = 0; u < kUsers; ++u) {
    builder.AddUndirectedEdge(u, (u + 1) % kUsers);
    const UserId chord = (u * 5 + 2) % kUsers;
    if (chord != u) builder.AddEdge(u, chord);
  }
  Result<SocialGraph> graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  Node2vecOptions options;
  options.dim = kDim;
  options.walks_per_node = 3;
  options.walk_length = 10;
  options.window = 3;
  options.return_param = 0.5;
  options.inout_param = 2.0;
  options.epochs = 2;
  options.seed = 11;
  options.num_threads = 1;
  Result<Node2vecModel> model = Node2vecModel::Train(graph.value(), options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const EmbeddingStore& store = model.value().embeddings();
  EXPECT_EQ(StoreCrc(store), kGoldenNode2vecCrc)
      << std::hex << "0x" << StoreCrc(store);
  EXPECT_EQ(Bits(store.Score(2, 9)), kGoldenNode2vecScore29Bits)
      << std::hex << "0x" << Bits(store.Score(2, 9));
}

TEST_F(ScalarReferenceTest, PaddedStorageDoesNotChangeRngDrawOrder) {
  // Two stores with different padding amounts (dim 13 pads 3 lanes,
  // dim 8 pads none) must both consume exactly dim draws per row: the
  // draw consumed after init is position-identical to a store with no
  // padding at all.
  EmbeddingStore padded(4, 13);
  Rng rng_a(99);
  padded.InitPaperDefault(rng_a);
  Rng rng_b(99);
  std::vector<double> expected;
  const double bound = 1.0 / 13.0;
  for (size_t i = 0; i < 2 * 4 * 13; ++i) {
    expected.push_back(rng_b.UniformDouble(-bound, bound));
  }
  size_t idx = 0;
  for (UserId u = 0; u < 4; ++u) {
    for (double x : padded.Source(u)) EXPECT_EQ(Bits(x), Bits(expected[idx++]));
  }
  for (UserId u = 0; u < 4; ++u) {
    for (double x : padded.Target(u)) EXPECT_EQ(Bits(x), Bits(expected[idx++]));
  }
  // Both generators are now in the same state.
  EXPECT_EQ(rng_a.UniformDouble(), rng_b.UniformDouble());
}

TEST_F(ScalarReferenceTest, GrowToPreservesBitsAndDrawOrderWithPadding) {
  EmbeddingStore store(3, 13);
  Rng init(5);
  store.InitPaperDefault(init);
  const EmbeddingStore before = store;
  Rng grow(17);
  store.GrowTo(6, grow);
  for (UserId u = 0; u < 3; ++u) {
    for (uint32_t k = 0; k < 13; ++k) {
      EXPECT_EQ(Bits(store.Source(u)[k]), Bits(before.Source(u)[k]));
      EXPECT_EQ(Bits(store.Target(u)[k]), Bits(before.Target(u)[k]));
    }
  }
  // New rows draw in user-id order, all S rows then all T rows, dim
  // draws per row — independent of the padded stride.
  Rng expected_rng(17);
  const double bound = 1.0 / 13.0;
  for (UserId u = 3; u < 6; ++u) {
    for (uint32_t k = 0; k < 13; ++k) {
      EXPECT_EQ(Bits(store.Source(u)[k]),
                Bits(expected_rng.UniformDouble(-bound, bound)));
    }
  }
  for (UserId u = 3; u < 6; ++u) {
    for (uint32_t k = 0; k < 13; ++k) {
      EXPECT_EQ(Bits(store.Target(u)[k]),
                Bits(expected_rng.UniformDouble(-bound, bound)));
    }
  }
}

}  // namespace
}  // namespace inf2vec
