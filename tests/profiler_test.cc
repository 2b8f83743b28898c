// Sampling CPU profiler tests: start/stop lifecycle and option
// validation, sample capture from a busy loop, the timed auto-stop
// session behind /pprofz?seconds=N, folded-stack output shape, and the
// attribution contract — on a top-k serving workload at least half of
// all samples must land in the kernel-scan call tree.

#include "obs/profiler.h"

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/model_io.h"
#include "serve/influence_service.h"
#include "util/rng.h"

namespace inf2vec {
namespace obs {
namespace {

/// Burns CPU (not wall time) until `seconds` of work elapsed — ITIMER_PROF
/// only ticks on CPU time, so sleeping would starve the profiler.
uint64_t BurnCpu(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  volatile uint64_t sink = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i) * i;
  }
  return sink;
}

TEST(CpuProfilerTest, StartStopLifecycle) {
  CpuProfiler profiler;
  EXPECT_FALSE(profiler.running());
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start().ok());  // Already running.
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());
  EXPECT_TRUE(profiler.Stop().ok());  // Idempotent.
}

TEST(CpuProfilerTest, RejectsBadOptions) {
  CpuProfiler profiler;
  CpuProfiler::Options options;
  options.hz = 0;
  EXPECT_FALSE(profiler.Start(options).ok());
  options.hz = 1000000;
  EXPECT_FALSE(profiler.Start(options).ok());
  options.hz = 100;
  options.max_samples = 0;
  EXPECT_FALSE(profiler.Start(options).ok());
  EXPECT_FALSE(profiler.StartForDuration(0.0).ok());
  EXPECT_FALSE(profiler.StartForDuration(-1.0).ok());
  EXPECT_FALSE(profiler.running());
}

TEST(CpuProfilerTest, CapturesSamplesFromBusyLoop) {
  CpuProfiler profiler;
  CpuProfiler::Options options;
  options.hz = 1000;
  ASSERT_TRUE(profiler.Start(options).ok());
  BurnCpu(0.4);
  ASSERT_TRUE(profiler.Stop().ok());

  EXPECT_GT(profiler.sample_count(), 0u);
  EXPECT_EQ(profiler.hz(), 1000);
  const std::string folded = profiler.FoldedStacks();
  ASSERT_FALSE(folded.empty());
  // Every line is "frame;frame;... count" with a positive trailing count.
  std::istringstream lines(folded);
  std::string line;
  uint64_t total = 0;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const uint64_t count = std::stoull(line.substr(space + 1));
    EXPECT_GT(count, 0u) << line;
    total += count;
  }
  EXPECT_EQ(total, profiler.sample_count());

  const JsonValue describe = profiler.DescribeJson();
  EXPECT_FALSE(describe.Find("running")->AsBool());
  EXPECT_EQ(static_cast<uint64_t>(describe.Find("samples")->AsInt()),
            profiler.sample_count());
}

TEST(CpuProfilerTest, StartForDurationAutoStops) {
  CpuProfiler profiler;
  ASSERT_TRUE(profiler.StartForDuration(0.3).ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.StartForDuration(0.3).ok());  // One at a time.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.running() &&
         std::chrono::steady_clock::now() < deadline) {
    BurnCpu(0.05);
  }
  EXPECT_FALSE(profiler.running());
  EXPECT_GT(profiler.sample_count(), 0u);
  // A fresh session can start after the auto-stop.
  ASSERT_TRUE(profiler.Start().ok());
  ASSERT_TRUE(profiler.Stop().ok());
}

TEST(CpuProfilerTest, StopCancelsPendingAutoStop) {
  CpuProfiler profiler;
  ASSERT_TRUE(profiler.StartForDuration(3600.0).ok());
  BurnCpu(0.05);
  ASSERT_TRUE(profiler.Stop().ok());  // Must not wait the full hour.
  EXPECT_FALSE(profiler.running());
}

TEST(CpuProfilerTest, AttributesKernelScanFramesOnTopKWorkload) {
  // A serving table big enough that the blocked scan dominates each
  // query; the profile of a pure top-k loop must attribute at least half
  // of all samples to the scan call tree (InfluenceService::TopK and the
  // kernels below it).
  EmbeddingStore store(20000, 32);
  Rng rng(99);
  store.InitUniform(-0.5, 0.5, rng);
  ModelArtifact artifact;
  artifact.store = std::move(store);
  artifact.metadata.dim = 32;
  auto service_or = serve::InfluenceService::FromArtifact(
      std::move(artifact), serve::ServiceOptions{});
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  const serve::InfluenceService service = std::move(service_or).value();
  service.Warm();

  CpuProfiler profiler;
  CpuProfiler::Options options;
  options.hz = 500;
  ASSERT_TRUE(profiler.Start(options).ok());
  const auto start = std::chrono::steady_clock::now();
  uint32_t queries = 0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < 1.5) {
    serve::TopKRequest query;
    query.seeds = {static_cast<UserId>(queries % 20000),
                   static_cast<UserId>((queries * 7 + 3) % 20000)};
    query.k = 10;
    ASSERT_TRUE(service.TopK(query).ok());
    ++queries;
  }
  ASSERT_TRUE(profiler.Stop().ok());
  ASSERT_GE(profiler.sample_count(), 50u)
      << "profiler captured too few samples to attribute";

  const std::string folded = profiler.FoldedStacks();
  std::istringstream lines(folded);
  std::string line;
  uint64_t total = 0, scan = 0;
  const std::vector<std::string> scan_markers = {
      "TopK", "kernels", "SeedScan", "InfluenceService"};
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const uint64_t count = std::stoull(line.substr(space + 1));
    total += count;
    for (const std::string& marker : scan_markers) {
      if (line.find(marker) != std::string::npos) {
        scan += count;
        break;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(scan) / static_cast<double>(total), 0.5)
      << "only " << scan << "/" << total
      << " samples in the scan tree:\n" << folded;
}

}  // namespace
}  // namespace obs
}  // namespace inf2vec
