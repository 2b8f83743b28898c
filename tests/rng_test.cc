#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace inf2vec {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformU64(bound), bound);
  }
}

TEST(RngTest, UniformU64CoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformU64(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(17);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformU64(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 0.05 * expected);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(23);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 3000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(31);
  double min = 1.0;
  double max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    min = std::min(min, v);
    max = std::max(max, v);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(37);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(41);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(43);
  constexpr int kDraws = 60000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[i] = i;
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, items);  // Overwhelmingly likely.
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, ShuffleMatchesPlainFisherYatesAcrossTheLookahead) {
  // Shuffle draws its swap indices ahead of use; the draws, the
  // permutation and the final state must equal the textbook loop's for
  // sizes below, at and above the look-ahead depth.
  const size_t depth = Rng::kShuffleLookahead;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         depth - 1, depth, depth + 1, size_t{100000}}) {
    std::vector<std::pair<uint32_t, uint32_t>> items(n);
    for (size_t i = 0; i < n; ++i) {
      items[i] = {static_cast<uint32_t>(i), static_cast<uint32_t>(n - i)};
    }
    std::vector<std::pair<uint32_t, uint32_t>> expected = items;
    Rng rng(1000 + n);
    Rng reference(1000 + n);
    rng.Shuffle(items);
    for (size_t i = n; i > 1; --i) {
      std::swap(expected[i - 1], expected[reference.UniformU64(i)]);
    }
    EXPECT_EQ(items, expected) << "n = " << n;
    EXPECT_EQ(rng.state(), reference.state()) << "n = " << n;
  }
}

TEST(RngTest, SampleWithoutReplacementSizesAndUniqueness) {
  Rng rng(53);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[i] = i;

  const std::vector<int> sample = rng.SampleWithoutReplacement(items, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);

  const std::vector<int> all = rng.SampleWithoutReplacement(items, 100);
  EXPECT_EQ(all.size(), 50u);
}

TEST(RngTest, SampleWithoutReplacementIsUnbiased) {
  // Every item should appear in a size-1 sample with roughly equal rate.
  Rng rng(59);
  std::vector<int> items = {0, 1, 2, 3, 4};
  std::vector<int> counts(5, 0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.SampleWithoutReplacement(items, 1)[0]];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 5.0, 0.08 * kDraws / 5.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += parent.NextU64() == child.NextU64() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace inf2vec
