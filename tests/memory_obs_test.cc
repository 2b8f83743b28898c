// Memory-plane tests: byte-accounting gauges and their registry, RAII
// reservations, the /proc sampler, the serving budget check, the /memz
// payload schema, and the owner-side accounting (seed cache, embedding
// table, tracez ring). The concurrency test hammers gauges while /memz
// scrapes run — run under -DINF2VEC_SANITIZE=thread to prove the plane
// is race-free (`ctest -L mem`).

#include "obs/memory.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "embedding/embedding_store.h"
#include "embedding/model_io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "obs/snapshotter.h"
#include "serve/influence_service.h"
#include "serve/seed_cache.h"
#include "util/rng.h"

namespace inf2vec {
namespace obs {
namespace {

/// Every test starts from zeroed gauges and no budget; the handles owners
/// cached earlier stay valid across Reset().
class MemoryObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryRegistry::Default().Reset();
    SetMemoryBudget({0, 0});
  }
  void TearDown() override {
    MemoryRegistry::Default().Reset();
    SetMemoryBudget({0, 0});
  }
};

TEST_F(MemoryObsTest, GaugeTracksDeltasHighWaterAndClampsAtZero) {
  MemoryRegistry registry;
  MemoryGauge* gauge = registry.GetGauge("test.owner");
  EXPECT_EQ(gauge->bytes(), 0u);

  gauge->Add(1000);
  gauge->Add(500);
  EXPECT_EQ(gauge->bytes(), 1500u);
  EXPECT_EQ(gauge->high_water_bytes(), 1500u);

  gauge->Add(-700);
  EXPECT_EQ(gauge->bytes(), 800u);
  EXPECT_EQ(gauge->high_water_bytes(), 1500u) << "high water never recedes";

  gauge->Set(2000);
  EXPECT_EQ(gauge->bytes(), 2000u);
  EXPECT_EQ(gauge->high_water_bytes(), 2000u);

  // A stray double-free in owner accounting must not report negative
  // memory.
  gauge->Add(-9999);
  EXPECT_EQ(gauge->bytes(), 0u);
}

TEST_F(MemoryObsTest, RegistryHandlesAreStableAndTotalSumsGauges) {
  MemoryRegistry registry;
  MemoryGauge* a = registry.GetGauge("owner.a");
  MemoryGauge* b = registry.GetGauge("owner.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, registry.GetGauge("owner.a")) << "same name => same handle";

  a->Add(100);
  b->Add(250);
  EXPECT_EQ(registry.AccountedBytes(), 350u);
  b->Add(-250);
  EXPECT_EQ(registry.AccountedBytes(), 100u);

  registry.Reset();
  EXPECT_EQ(registry.AccountedBytes(), 0u);
  EXPECT_EQ(a->bytes(), 0u) << "handles survive Reset zeroed";
  a->Add(7);
  EXPECT_EQ(registry.AccountedBytes(), 7u);
}

TEST_F(MemoryObsTest, ProvidersCountInScrapeButNotInAccountedBytes) {
  MemoryRegistry registry;
  registry.GetGauge("push.owner")->Add(1000);
  registry.RegisterProvider("ring.owner", []() { return 4096u; });

  // The budget fast path reads push gauges only.
  EXPECT_EQ(registry.AccountedBytes(), 1000u);

  const MemoryRegistry::Snapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.total_bytes, 5096u);
  ASSERT_EQ(snapshot.entries.size(), 2u);
  // Entries are name-sorted.
  EXPECT_EQ(snapshot.entries[0].name, "push.owner");
  EXPECT_FALSE(snapshot.entries[0].provider);
  EXPECT_EQ(snapshot.entries[1].name, "ring.owner");
  EXPECT_TRUE(snapshot.entries[1].provider);
  EXPECT_EQ(snapshot.entries[1].bytes, 4096u);

  registry.UnregisterProvider("ring.owner");
  EXPECT_EQ(registry.Scrape().total_bytes, 1000u);
}

TEST_F(MemoryObsTest, ProviderHighWaterIsScrapeTimeMax) {
  MemoryRegistry registry;
  uint64_t live = 100;
  registry.RegisterProvider("ring", [&live]() { return live; });
  EXPECT_EQ(registry.Scrape().entries[0].high_water_bytes, 100u);
  live = 900;
  EXPECT_EQ(registry.Scrape().entries[0].high_water_bytes, 900u);
  live = 50;
  const MemoryRegistry::Snapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.entries[0].bytes, 50u);
  EXPECT_EQ(snapshot.entries[0].high_water_bytes, 900u);
}

TEST_F(MemoryObsTest, ScopedBytesReportsAndReleases) {
  MemoryRegistry registry;
  MemoryGauge* gauge = registry.GetGauge("scoped.owner");
  {
    ScopedBytes scoped(gauge, 4096);
    EXPECT_EQ(gauge->bytes(), 4096u);
    EXPECT_EQ(scoped.bytes(), 4096u);

    scoped.Resize(1024);
    EXPECT_EQ(gauge->bytes(), 1024u);

    // Move transfers the reservation; the source must not double-free.
    ScopedBytes stolen(std::move(scoped));
    EXPECT_EQ(scoped.bytes(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(gauge->bytes(), 1024u);

    ScopedBytes assigned;
    assigned = std::move(stolen);
    EXPECT_EQ(gauge->bytes(), 1024u);

    assigned.Release();
    EXPECT_EQ(gauge->bytes(), 0u);
    assigned.Release();  // Idempotent.
    EXPECT_EQ(gauge->bytes(), 0u);
  }
  EXPECT_EQ(gauge->bytes(), 0u);

  // Destructor path: the reservation dies with the scope.
  {
    ScopedBytes scoped(gauge, 512);
    EXPECT_EQ(gauge->bytes(), 512u);
  }
  EXPECT_EQ(gauge->bytes(), 0u);
}

TEST_F(MemoryObsTest, MoveAssignmentFreesTheOverwrittenReservation) {
  MemoryRegistry registry;
  MemoryGauge* gauge = registry.GetGauge("scoped.owner");
  ScopedBytes first(gauge, 100);
  ScopedBytes second(gauge, 30);
  EXPECT_EQ(gauge->bytes(), 130u);
  first = std::move(second);  // The 100-byte reservation must be freed.
  EXPECT_EQ(gauge->bytes(), 30u);
}

TEST_F(MemoryObsTest, GaugeWritesThroughToMetricsRegistry) {
  MemoryRegistry registry;
  registry.GetGauge("writethrough.owner")->Set(777);
  // mem.<name>.bytes lands in the default MetricsRegistry, whence
  // Prometheus exports it as inf2vec_mem_writethrough_owner_bytes.
  EXPECT_EQ(MetricsRegistry::Default()
                .GetGauge("mem.writethrough.owner.bytes")
                ->Value(),
            777.0);
}

TEST_F(MemoryObsTest, SampleProcessMemoryReadsProc) {
  const MemorySample sample = SampleProcessMemory();
  // /proc/self/status always exists on Linux; a process running this test
  // binary has nonzero RSS and a peak at least as large.
  ASSERT_TRUE(sample.sampled);
  EXPECT_GT(sample.rss_bytes, 0u);
  EXPECT_GE(sample.peak_rss_bytes, sample.rss_bytes);
  EXPECT_GE(sample.vm_size_bytes, sample.rss_bytes);
}

TEST_F(MemoryObsTest, BudgetGatesOnAccountedPlusHeadroomPlusExtra) {
  EXPECT_FALSE(OverMemoryBudget()) << "no budget configured = unlimited";

  MemoryGauge* gauge = MemoryRegistry::Default().GetGauge("budget.owner");
  gauge->Set(600);
  SetMemoryBudget({1000, 100});
  const MemoryBudget budget = GetMemoryBudget();
  EXPECT_EQ(budget.budget_bytes, 1000u);
  EXPECT_EQ(budget.headroom_bytes, 100u);

  EXPECT_FALSE(OverMemoryBudget()) << "600 + 100 <= 1000";
  // The hot-swap preflight: doubling residency would blow the budget.
  EXPECT_TRUE(OverMemoryBudget(/*extra_bytes=*/600));

  gauge->Set(950);
  EXPECT_TRUE(OverMemoryBudget()) << "950 + 100 > 1000";

  SetMemoryBudget({0, 0});
  EXPECT_FALSE(OverMemoryBudget()) << "clearing the budget lifts the gate";
}

TEST_F(MemoryObsTest, MemzJsonMatchesSchema) {
  MemoryRegistry::Default().GetGauge("schema.owner")->Set(1234);
  MemoryRegistry::Default().RegisterProvider("schema.ring",
                                             []() { return 10u; });
  SetMemoryBudget({1u << 30, 1u << 20});

  const JsonValue memz = MemzJson();
  EXPECT_EQ(memz.Find("schema_version")->AsInt(), 1);

  const JsonValue* accounted = memz.Find("accounted");
  ASSERT_NE(accounted, nullptr);
  EXPECT_GE(accounted->Find("total_bytes")->AsInt(), 1234);
  const JsonValue* gauge =
      accounted->Find("gauges")->Find("schema.owner");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Find("bytes")->AsInt(), 1234);
  EXPECT_EQ(gauge->Find("high_water_bytes")->AsInt(), 1234);
  const JsonValue* ring = accounted->Find("gauges")->Find("schema.ring");
  ASSERT_NE(ring, nullptr);
  EXPECT_TRUE(ring->Find("provider")->AsBool());

  const JsonValue* process = memz.Find("process");
  ASSERT_NE(process, nullptr);
  EXPECT_TRUE(process->Find("sampled")->AsBool());
  EXPECT_GT(process->Find("rss_bytes")->AsInt(), 0);

  ASSERT_NE(memz.Find("coverage"), nullptr);
  EXPECT_GE(memz.Find("coverage")->Find("accounted_over_rss")->AsDouble(),
            0.0);

  const JsonValue* budget = memz.Find("budget");
  ASSERT_NE(budget, nullptr) << "budget block present when one is set";
  EXPECT_EQ(budget->Find("budget_bytes")->AsInt(), 1 << 30);
  // The displayed figure must be the same number the shed check reads
  // (push gauges only), or operators cannot reason about a 503.
  EXPECT_EQ(
      budget->Find("accounted_bytes")->AsInt(),
      static_cast<int64_t>(MemoryRegistry::Default().AccountedBytes()));
  EXPECT_FALSE(budget->Find("over_budget")->AsBool());

  ASSERT_NE(memz.Find("heap_profiler"), nullptr);

  SetMemoryBudget({0, 0});
  EXPECT_EQ(MemzJson().Find("budget"), nullptr)
      << "no budget block when unlimited";
}

TEST_F(MemoryObsTest, MemorySeriesJsonIsCompact) {
  MemoryRegistry::Default().GetGauge("series.owner")->Set(4096);
  const JsonValue series = MemorySeriesJson();
  EXPECT_GE(series.Find("accounted_bytes")->AsInt(), 4096);
  EXPECT_GT(series.Find("rss_bytes")->AsInt(), 0);
  EXPECT_EQ(series.Find("gauges")->Find("series.owner")->AsInt(), 4096);
}

TEST_F(MemoryObsTest, SnapshotterLinesCarryTheMemorySeries) {
  MemoryRegistry::Default().GetGauge("snap.owner")->Set(8192);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path =
      std::string(tmpdir ? tmpdir : "/tmp") + "/memz_snap.jsonl";
  MetricsRegistry registry;
  registry.GetCounter("work.done")->Increment(1);
  MetricsSnapshotter snapshotter({path, /*interval_ms=*/60000}, &registry);
  ASSERT_TRUE(snapshotter.Start().ok());
  snapshotter.Stop();

  std::ifstream in(path);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonValue* memory = parsed.value().Find("memory");
    ASSERT_NE(memory, nullptr) << "every tick carries the memory series";
    EXPECT_GE(memory->Find("accounted_bytes")->AsInt(), 8192);
    EXPECT_GT(memory->Find("rss_bytes")->AsInt(), 0);
    EXPECT_EQ(memory->Find("gauges")->Find("snap.owner")->AsInt(), 8192);
  }
  EXPECT_GE(lines, 1u);
  std::remove(path.c_str());
}

TEST_F(MemoryObsTest, ConcurrentScrapesAndUpdatesAreRaceFree) {
  constexpr int kWriters = 4;
  constexpr int kScrapers = 2;
  constexpr int kIterations = 2000;

  SetMemoryBudget({1u << 20, 0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w]() {
      MemoryGauge* gauge = MemoryRegistry::Default().GetGauge(
          "race.owner." + std::to_string(w % 2));
      for (int i = 0; i < kIterations; ++i) {
        gauge->Add(64);
        gauge->Add(-64);
      }
    });
  }
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([&stop]() {
      while (!stop.load(std::memory_order_relaxed)) {
        const JsonValue memz = MemzJson();
        ASSERT_NE(memz.Find("accounted"), nullptr);
        (void)MemoryRegistry::Default().Scrape();
        (void)OverMemoryBudget(1024);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  // Every Add was paired with its negation: the plane nets to zero.
  EXPECT_EQ(MemoryRegistry::Default().GetGauge("race.owner.0")->bytes(), 0u);
  EXPECT_EQ(MemoryRegistry::Default().GetGauge("race.owner.1")->bytes(), 0u);
  SetMemoryBudget({0, 0});
}

// ---- Owner-side accounting -------------------------------------------

EmbeddingStore MakeStore(uint32_t users, uint32_t dim) {
  EmbeddingStore store(users, dim);
  Rng rng(99);
  store.InitUniform(-0.5, 0.5, rng);
  return store;
}

TEST_F(MemoryObsTest, SeedCacheAccountsLiveBytesIncrementally) {
  const serve::ServingTable table(MakeStore(64, 8));
  MemoryGauge* gauge =
      MemoryRegistry::Default().GetGauge("serve.seed_cache");
  {
    serve::SeedBlockCache cache(/*capacity=*/2);
    EXPECT_EQ(cache.total_bytes(), 0u);

    bool hit = false;
    ASSERT_NE(cache.Get(table, {1, 2, 3}, &hit), nullptr);
    EXPECT_FALSE(hit);
    const uint64_t one_entry = cache.total_bytes();
    EXPECT_GT(one_entry, 0u);
    EXPECT_EQ(gauge->bytes(), one_entry);

    // A hit must not change the accounting.
    ASSERT_NE(cache.Get(table, {1, 2, 3}, &hit), nullptr);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.total_bytes(), one_entry);

    ASSERT_NE(cache.Get(table, {4, 5}, &hit), nullptr);
    const uint64_t two_entries = cache.total_bytes();
    EXPECT_GT(two_entries, one_entry);
    EXPECT_EQ(gauge->bytes(), two_entries);

    // Third distinct set evicts the LRU entry: bytes stay bounded by the
    // two retained entries, never grow monotonically.
    ASSERT_NE(cache.Get(table, {6, 7, 8, 9}, &hit), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.total_bytes(), two_entries + (two_entries - one_entry));
    EXPECT_EQ(gauge->bytes(), cache.total_bytes());

    // The metric-gauge export tracks the same figure.
    EXPECT_EQ(MetricsRegistry::Default()
                  .GetGauge("serve.seed_cache_bytes")
                  ->Value(),
              static_cast<double>(cache.total_bytes()));
  }
  EXPECT_EQ(gauge->bytes(), 0u) << "destroyed cache gives its bytes back";
}

TEST_F(MemoryObsTest, InfluenceServiceAccountsItsTables) {
  MemoryGauge* table =
      MemoryRegistry::Default().GetGauge("serve.embedding_table");
  MemoryGauge* qtable =
      MemoryRegistry::Default().GetGauge("serve.quantized_table");
  {
    ModelArtifact artifact;
    artifact.store = MakeStore(128, 16);
    artifact.metadata.dim = 16;
    const uint64_t expected = artifact.store.ApproxBytes();

    serve::ServiceOptions options;
    options.quantize = serve::QuantMode::kInt8;
    auto service_or =
        serve::InfluenceService::FromArtifact(std::move(artifact), options);
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    // int8 mode keeps only the int8 table: the fp64 one is freed at load.
    EXPECT_EQ(table->bytes(), 0u);
    EXPECT_GT(qtable->bytes(), 0u);
    EXPECT_LT(qtable->bytes(), expected)
        << "int8 rows must be smaller than the fp64 table";
    EXPECT_EQ(service_or.value().AccountedBytes(), qtable->bytes());
  }
  EXPECT_EQ(table->bytes(), 0u);
  EXPECT_EQ(qtable->bytes(), 0u);
}

TEST_F(MemoryObsTest, TracezRingAccountsRecordsAndReleasesOnDestruction) {
  MemoryGauge* gauge =
      MemoryRegistry::Default().GetGauge("obs.tracez_ring");
  {
    TracezBuffer tracez(/*recent_capacity=*/4, /*slow_capacity=*/2,
                        /*slow_threshold_us=*/0);
    EXPECT_EQ(tracez.ApproxBytes(), 0u);

    for (int i = 0; i < 16; ++i) {
      RequestTraceRecord record;
      record.request_id = "req-" + std::to_string(i);
      record.method = "GET";
      record.endpoint = "/topk";
      record.status = 200;
      record.total_us = static_cast<uint64_t>(100 + i);
      record.attrs.emplace_back("seed_count", "4");
      tracez.Record(std::move(record));
    }
    // Both rings are full and bounded; the incremental accounting must
    // agree with the gauge exactly (not merely approximately).
    EXPECT_GT(tracez.ApproxBytes(), 0u);
    EXPECT_EQ(gauge->bytes(), tracez.ApproxBytes());
  }
  EXPECT_EQ(gauge->bytes(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace inf2vec
