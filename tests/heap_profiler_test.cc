// Sampling heap-profiler tests. The attribution pin is the acceptance
// criterion from the memory-plane issue: with a fine sample period, at
// least half of the sampled live bytes must fold to embedding-table /
// quantized-table allocation sites — the frames an operator needs to see
// when asking "why is this serving process 8 GB?". Uses the process-wide
// profiler singleton, so tests run sequentially and each resets it.

#include "obs/heap_profiler.h"

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/embedding_store.h"
#include "embedding/quantized_store.h"
#include "obs/json.h"
#include "util/rng.h"

namespace inf2vec {
namespace obs {
namespace {

/// Folded format: "frame;frame;frame <bytes>" per line. Sums every
/// line's weight into `*total_out` and the weight of lines whose stack
/// mentions any of `needles` into the return value.
uint64_t FoldedBytesMatching(const std::string& folded,
                             const std::vector<std::string>& needles,
                             uint64_t* total_out) {
  uint64_t matched = 0;
  uint64_t total = 0;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "bad folded line: " << line;
    if (space == std::string::npos) continue;
    const uint64_t bytes = std::stoull(line.substr(space + 1));
    total += bytes;
    for (const std::string& needle : needles) {
      if (line.find(needle) != std::string::npos) {
        matched += bytes;
        break;
      }
    }
  }
  if (total_out != nullptr) *total_out = total;
  return matched;
}

class HeapProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HeapProfiler& profiler = HeapProfiler::Default();
    if (profiler.running()) {
      ASSERT_TRUE(profiler.Stop().ok());
    }
    profiler.Reset();
  }
  void TearDown() override {
    HeapProfiler& profiler = HeapProfiler::Default();
    (void)profiler.Stop();
    profiler.Reset();
  }
};

TEST_F(HeapProfilerTest, LifecycleAndDoubleStartRefused) {
  HeapProfiler& profiler = HeapProfiler::Default();
  EXPECT_FALSE(profiler.running());

  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.sample_period_bytes(), 512u * 1024u);
  EXPECT_FALSE(profiler.Start().ok()) << "already running";

  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());

  // Samples stay inspectable after Stop; Reset drops them.
  profiler.Reset();
  EXPECT_EQ(profiler.total_samples(), 0u);
  EXPECT_EQ(profiler.sampled_live_bytes(), 0u);
}

TEST_F(HeapProfilerTest, ZeroPeriodFallsBackToDefault) {
  HeapProfiler& profiler = HeapProfiler::Default();
  HeapProfiler::Options options;
  options.sample_period_bytes = 0;
  ASSERT_TRUE(profiler.Start(options).ok());
  EXPECT_EQ(profiler.sample_period_bytes(), 512u * 1024u);
}

TEST_F(HeapProfilerTest, LargeAllocationsAreAlwaysSampled) {
  HeapProfiler& profiler = HeapProfiler::Default();
  HeapProfiler::Options options;
  options.sample_period_bytes = 64 * 1024;
  ASSERT_TRUE(profiler.Start(options).ok());

  // 8 MB >> period: sampled with probability 1, weighted exactly.
  constexpr size_t kBig = 8u << 20;
  auto block = std::make_unique<std::vector<double>>(kBig / sizeof(double));
  EXPECT_GE(profiler.total_samples(), 1u);
  EXPECT_GE(profiler.sampled_live_bytes(), static_cast<uint64_t>(kBig));
  const uint64_t live_with_block = profiler.sampled_live_bytes();

  // Freeing the block must give its sampled bytes back.
  block.reset();
  EXPECT_LE(profiler.sampled_live_bytes(), live_with_block - kBig);
  // Cumulative attribution keeps the freed allocation.
  EXPECT_GE(profiler.sampled_alloc_bytes(), static_cast<uint64_t>(kBig));
}

TEST_F(HeapProfilerTest, AttributesEmbeddingTablesToTheirAllocationSites) {
  HeapProfiler& profiler = HeapProfiler::Default();
  HeapProfiler::Options options;
  options.sample_period_bytes = 64 * 1024;
  ASSERT_TRUE(profiler.Start(options).ok());

  // ~26 MB of fp64 table plus the int8 copy: the embedding stores are the
  // overwhelming majority of what this test allocates while sampling.
  constexpr uint32_t kUsers = 25000;
  constexpr uint32_t kDim = 64;
  EmbeddingStore store(kUsers, kDim);
  Rng rng(7);
  store.InitUniform(-0.5, 0.5, rng);
  const QuantizedEmbeddingStore quantized =
      QuantizedEmbeddingStore::FromStore(store);
  ASSERT_GT(quantized.num_users(), 0u);

  ASSERT_TRUE(profiler.Stop().ok());
  ASSERT_GT(profiler.total_samples(), 0u);

  const std::string folded = profiler.FoldedLive();
  ASSERT_FALSE(folded.empty());
  uint64_t total = 0;
  const uint64_t matched = FoldedBytesMatching(
      folded,
      {"EmbeddingStore", "QuantizedEmbeddingStore", "AlignedAllocator"},
      &total);
  ASSERT_GT(total, 0u);
  // The acceptance bar: at least half the sampled live bytes must land on
  // embedding / quantized-store sites. (In practice nearly all do; 50%
  // keeps the test robust to allocator and libstdc++ noise.)
  EXPECT_GE(matched, total / 2)
      << "only " << matched << " of " << total
      << " sampled live bytes fold to embedding-store frames:\n"
      << folded;

  // The live profile also shrinks when the tables go away.
  const uint64_t live_before = profiler.sampled_live_bytes();
  {
    EmbeddingStore doomed(kUsers, kDim);
    (void)doomed;
  }  // Allocated after Stop(): must not perturb sampled bytes.
  EXPECT_EQ(profiler.sampled_live_bytes(), live_before)
      << "stopped profiler must not record new allocations";
}

TEST_F(HeapProfilerTest, DescribeJsonCarriesCountersAndState) {
  HeapProfiler& profiler = HeapProfiler::Default();
  HeapProfiler::Options options;
  options.sample_period_bytes = 128 * 1024;
  ASSERT_TRUE(profiler.Start(options).ok());
  std::vector<uint8_t> block(4u << 20);
  ASSERT_GT(block.size(), 0u);

  const JsonValue describe = profiler.DescribeJson();
  EXPECT_TRUE(describe.Find("running")->AsBool());
  EXPECT_EQ(describe.Find("sample_period_bytes")->AsInt(), 128 * 1024);
  EXPECT_GE(describe.Find("samples")->AsInt(), 1);
  EXPECT_GE(describe.Find("sampled_live_bytes")->AsInt(),
            static_cast<int64_t>(block.size()));
  EXPECT_GE(describe.Find("sampled_alloc_bytes")->AsInt(),
            describe.Find("sampled_live_bytes")->AsInt());

  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.DescribeJson().Find("running")->AsBool());
}

TEST_F(HeapProfilerTest, FoldedAllocKeepsFreedAllocations) {
  HeapProfiler& profiler = HeapProfiler::Default();
  HeapProfiler::Options options;
  options.sample_period_bytes = 64 * 1024;
  ASSERT_TRUE(profiler.Start(options).ok());

  { std::vector<double> transient((16u << 20) / sizeof(double)); }
  ASSERT_TRUE(profiler.Stop().ok());

  uint64_t live_total = 0;
  uint64_t alloc_total = 0;
  FoldedBytesMatching(profiler.FoldedLive(), {}, &live_total);
  FoldedBytesMatching(profiler.FoldedAlloc(), {}, &alloc_total);
  // The 16 MB transient is gone from the live profile but stays in the
  // cumulative one — the "who allocated the most" question.
  EXPECT_GE(alloc_total, live_total + (16u << 20) - (1u << 20));
}

}  // namespace
}  // namespace obs
}  // namespace inf2vec
