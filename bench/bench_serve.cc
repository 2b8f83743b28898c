// Closed-loop load bench for the online influence-query service. Drives
// InfluenceService directly (no HTTP, no socket noise) so the numbers
// isolate the serving kernel: seed gather + Eq. 7 scoring for single
// queries, the cache-blocked heap scan for top-k, and thread-pool
// sharding for batches. Each arm records per-request latency and reports
// p50/p99 plus sustained QPS through BENCH_serve.json.
//
// Four arms:
//   score_cold    rotating seed sets sized past the LRU, every gather a miss
//   score_cached  one hot seed set, every gather a hit
//   topk          k=10 full-table scan (throughput row: queries/sec)
//   topk_int8     same scan against the int8-quantized table
//   batch         1024-item ScoreBatch calls (throughput row: items/sec)
//
// plus four arms that go through the real epoll HTTP server (loopback
// sockets, the production serve_endpoints handlers, int8 table):
//   http_serial      connection-per-request GET /score, one at a time —
//                    the thread-per-request cost model the epoll core
//                    replaced
//   http_concurrent  8 keep-alive clients pipelining GET /score bursts,
//                    closed loop; the headline gate is this arm's QPS
//                    over http_serial at p99 < 10 ms
//                    (summary.http_speedup_pass). The full 10x target
//                    assumes the 8-core serving deployment shape (the
//                    speedup = syscall amortization x worker
//                    parallelism, and the parallelism term is capped by
//                    the machine); hosts with fewer cores gate on the
//                    proportional slice, like the mem-coverage gate only
//                    applies when /proc is readable.
//   http_open_loop   paced arrivals at a fixed rate; latency is measured
//                    from the scheduled arrival time, so queueing delay
//                    counts, and 429 sheds are tallied instead of fatal
//   topk_coalesce    8 clients hammer GET /topk with the SAME seed set;
//                    the single-flight batcher shares one scan per
//                    coalition, so aggregate QPS beats the serial
//                    topk_int8 rate without running more scans
//
// plus the request-observability overhead gate: the same topk workload
// run twice per iteration — bare, and wrapped in the full per-request
// RequestScope (rpcz + tracez + access log) the HTTP server installs —
// interleaved so both arms share the machine's clock state. The median
// per-pair ratio must stay under the 2% acceptance gate
// (summary.request_obs_pass in BENCH_serve.json).
//
// Metrics recording is enabled, matching the production `serve` command,
// so latencies include the striped-counter cost the real server pays.
// The memory plane is live too: byte accounting plus the sampling heap
// profiler run for the whole bench, and the report carries a coverage
// gate (summary.mem_coverage_pass) checking that the accounted gauges
// explain >= 80% of sampled RSS at peak table residency.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "embedding/model_io.h"
#include "obs/access_log.h"
#include "obs/heap_profiler.h"
#include "obs/http_client.h"
#include "obs/http_server.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "serve/influence_service.h"
#include "serve/serve_endpoints.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace inf2vec;         // NOLINT
using namespace inf2vec::bench;  // NOLINT
using serve::InfluenceService;

// Million-user scale, the ROADMAP's serving stress scenario: the fp64
// target table (~512 MB) streams from RAM while the int8 table (~64 MB)
// stays cache-resident — the memory-footprint contrast the quantized
// store exists for. Smaller tables fit entirely in L3 on server parts
// and hide exactly the effect the topk arms measure.
constexpr uint32_t kNumUsers = 1000000;
constexpr uint32_t kDim = 64;
constexpr uint32_t kNumSeedSets = 1024;  // > LRU capacity: cold arm misses.
constexpr uint32_t kSeedsPerSet = 4;
constexpr uint32_t kColdQueries = 4000;
constexpr uint32_t kCachedQueries = 20000;
constexpr uint32_t kTopKQueries = 24;
constexpr uint32_t kBatchSize = 1024;
constexpr uint32_t kBatchCalls = 8;
constexpr uint32_t kObsPairs = 12;  // Interleaved (bare, traced) pairs.

// HTTP arms. The serial arm pays a fresh TCP connection per request (the
// old thread-per-request server's cost model); the concurrent arm runs
// kHttpClients keep-alive connections each pipelining kPipelineDepth
// requests per burst. Request counts are sized so each arm finishes in
// well under a second on loopback.
constexpr uint32_t kHttpSerialRequests = 1500;
constexpr uint32_t kHttpClients = 8;
constexpr uint32_t kPipelineDepth = 16;
constexpr uint32_t kBurstsPerClient = 40;
constexpr uint32_t kOpenLoopThreads = 4;
constexpr uint32_t kOpenLoopPerThread = 400;
constexpr double kOpenLoopRateQps = 4000.0;  // Total across all threads.
constexpr uint32_t kCoalesceClients = 8;
constexpr uint32_t kCoalesceRounds = 5;
// Full-target speedup on the 8-core serving deployment shape; the
// effective gate scales with the cores actually present (floored so the
// architectural win — keep-alive + pipelined syscall amortization —
// is still demanded even on a 1-core CI host).
constexpr double kHttpSpeedupFullGate = 10.0;
constexpr double kHttpSpeedupGateCores = 8.0;
constexpr double kHttpSpeedupGateFloor = 1.5;
constexpr double kHttpP99GateUs = 10000.0;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PercentileUs(std::vector<uint64_t>& latencies, double q) {
  INF2VEC_CHECK(!latencies.empty());
  std::sort(latencies.begin(), latencies.end());
  const double rank = q * static_cast<double>(latencies.size() - 1);
  return static_cast<double>(latencies[static_cast<size_t>(rank + 0.5)]);
}

struct ArmStats {
  double wall_ms = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Pipelining adapter over the shared obs::HttpClient raw-wire surface:
/// callers send several prebuilt requests, then read the responses back
/// in order. Response bodies are scanned only for the "coalesced" flag;
/// everything else is discarded. Deadline 0 == blocking, matching the
/// closed-loop arms' assumption that the server always answers.
class BenchConn {
 public:
  explicit BenchConn(uint16_t port) : client_(port) { client_.Connect(); }
  BenchConn(const BenchConn&) = delete;
  BenchConn& operator=(const BenchConn&) = delete;

  bool ok() const { return client_.connected(); }

  bool Send(const std::string& raw) { return client_.SendRaw(raw); }

  /// Reads exactly one framed response; returns its status code, or -1 on
  /// a transport/framing error. Sets *coalesced when the body carries the
  /// /topk single-flight marker.
  int ReadResponse(bool* coalesced = nullptr) {
    obs::HttpClientResponse response;
    if (!client_.ReadResponse(&response)) return -1;
    if (coalesced != nullptr) {
      *coalesced =
          response.body.find("\"coalesced\":true") != std::string::npos;
    }
    return response.status;
  }

 private:
  obs::HttpClient client_;
};

/// Runs `n` iterations of `fn`, timing each; returns wall/QPS/percentiles.
template <typename Fn>
ArmStats RunArm(uint32_t n, Fn&& fn) {
  std::vector<uint64_t> latencies;
  latencies.reserve(n);
  const WallTimer wall;
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t start = NowUs();
    fn(i);
    latencies.push_back(NowUs() - start);
  }
  ArmStats stats;
  stats.wall_ms = wall.ElapsedMillis();
  stats.qps = static_cast<double>(n) / (stats.wall_ms / 1000.0);
  stats.p50_us = PercentileUs(latencies, 0.50);
  stats.p99_us = PercentileUs(latencies, 0.99);
  return stats;
}

}  // namespace

int main() {
  obs::MetricsRegistry::Default().Reset();
  obs::EnableMetrics(true);

  // The memory plane runs for the whole bench: byte accounting is always
  // on (it is in production too), and the sampling heap profiler starts
  // here at its default 512 KB period so the request-obs overhead gate
  // below measures the full `serve --heap-profile-out` configuration, not
  // a stripped-down one.
  obs::MemoryRegistry::Default().Reset();
  INF2VEC_CHECK(obs::HeapProfiler::Default().Start().ok());

  // Synthetic fixed-seed model: serving cost depends only on table shape,
  // not on learned values, so training here would add minutes for nothing.
  Rng rng(4242);
  EmbeddingStore store(kNumUsers, kDim);
  store.InitUniform(-0.5, 0.5, rng);
  for (UserId u = 0; u < kNumUsers; ++u) {
    store.mutable_source_bias(u) = rng.UniformDouble(-0.1, 0.1);
    store.mutable_target_bias(u) = rng.UniformDouble(-0.1, 0.1);
  }
  // fp64 table footprint, for the int8 compression-ratio summary below.
  const double fp64_table_bytes = static_cast<double>(
      2ull * kNumUsers * store.row_stride() * sizeof(double) +
      2ull * kNumUsers * sizeof(double));

  ModelArtifact artifact;
  artifact.store = store;
  artifact.metadata.dim = kDim;

  serve::ServiceOptions options;
  options.num_threads = 0;  // All hardware threads for the batch arm.
  auto service_or =
      InfluenceService::FromArtifact(std::move(artifact), options);
  INF2VEC_CHECK(service_or.ok()) << service_or.status().ToString();
  const InfluenceService service = std::move(service_or).value();
  service.Warm();

  // Same table, int8-quantized serving mode (the `serve --quantize int8`
  // path); only the topk arm runs against it.
  ModelArtifact int8_artifact;
  int8_artifact.store = std::move(store);
  int8_artifact.metadata.dim = kDim;
  serve::ServiceOptions int8_options = options;
  int8_options.quantize = serve::QuantMode::kInt8;
  auto int8_service_or =
      InfluenceService::FromArtifact(std::move(int8_artifact), int8_options);
  INF2VEC_CHECK(int8_service_or.ok()) << int8_service_or.status().ToString();
  const InfluenceService int8_service = std::move(int8_service_or).value();
  int8_service.Warm();

  // Distinct seed sets; kNumSeedSets exceeds the LRU capacity, so
  // round-robin rotation through them defeats the cache (cold arm) while
  // reusing set 0 alone always hits (cached arm).
  std::vector<std::vector<UserId>> seed_sets(kNumSeedSets);
  for (auto& seeds : seed_sets) {
    seeds.reserve(kSeedsPerSet);
    for (uint32_t i = 0; i < kSeedsPerSet; ++i) {
      seeds.push_back(static_cast<UserId>(rng.UniformU64(kNumUsers)));
    }
  }

  // Coverage checkpoint at peak residency: both serving tables (fp64 and
  // fp64+int8) are resident and the arms only allocate request-sized
  // transients, so this is where the accounted gauges either explain the
  // kernel's RSS figure or don't (acceptance: >= 80%).
  const obs::MemoryRegistry::Snapshot mem_snap =
      obs::MemoryRegistry::Default().Scrape();
  const obs::MemorySample mem_sample = obs::SampleProcessMemory();
  const double mem_coverage =
      mem_sample.rss_bytes > 0
          ? static_cast<double>(mem_snap.total_bytes) /
                static_cast<double>(mem_sample.rss_bytes)
          : 0.0;

  std::printf("serve bench: %u users, dim %u, %u seed sets x %u seeds\n\n",
              kNumUsers, kDim, kNumSeedSets, kSeedsPerSet);

  const ArmStats cold = RunArm(kColdQueries, [&](uint32_t i) {
    serve::ScoreRequest request;
    request.candidate = (i * 7) % kNumUsers;
    request.seeds = seed_sets[i % kNumSeedSets];
    const auto result = service.ScoreActivation(request);
    INF2VEC_CHECK(result.ok()) << result.status().ToString();
  });

  const ArmStats cached = RunArm(kCachedQueries, [&](uint32_t i) {
    serve::ScoreRequest request;
    request.candidate = (i * 13) % kNumUsers;
    request.seeds = seed_sets[0];
    const auto result = service.ScoreActivation(request);
    INF2VEC_CHECK(result.ok()) << result.status().ToString();
  });

  const ArmStats topk = RunArm(kTopKQueries, [&](uint32_t i) {
    serve::TopKRequest request;
    request.seeds = seed_sets[i % kNumSeedSets];
    request.k = 10;
    const auto result = service.TopK(request);
    INF2VEC_CHECK(result.ok()) << result.status().ToString();
    INF2VEC_CHECK(result.value().entries.size() == 10u);
  });

  const ArmStats topk_int8 = RunArm(kTopKQueries, [&](uint32_t i) {
    serve::TopKRequest request;
    request.seeds = seed_sets[i % kNumSeedSets];
    request.k = 10;
    const auto result = int8_service.TopK(request);
    INF2VEC_CHECK(result.ok()) << result.status().ToString();
    INF2VEC_CHECK(result.value().entries.size() == 10u);
  });

  const ArmStats batch = RunArm(kBatchCalls, [&](uint32_t call) {
    serve::BatchScoreRequest request;
    request.items.reserve(kBatchSize);
    for (uint32_t i = 0; i < kBatchSize; ++i) {
      serve::BatchItem item;
      item.candidate = (call * kBatchSize + i * 3) % kNumUsers;
      item.seeds = seed_sets[(call * kBatchSize + i) % kNumSeedSets];
      request.items.push_back(std::move(item));
    }
    const auto result = service.ScoreBatch(request);
    INF2VEC_CHECK(result.ok()) << result.status().ToString();
  });
  // The batch row's throughput is items/sec, not calls/sec.
  const double batch_items_per_sec =
      static_cast<double>(kBatchCalls) * kBatchSize / (batch.wall_ms / 1000.0);

  // Request-observability overhead gate. Each iteration runs the SAME
  // hot-cache topk query bare and then inside a full RequestScope
  // (rpcz + tracez + access log — everything `serve --access-log` turns
  // on, including the scope teardown that serializes the wide event);
  // adjacent runs share clock state, so the median per-pair ratio
  // resolves a 2% signal that back-to-back whole-arm runs cannot.
  obs::RpczRegistry rpcz;
  obs::TracezBuffer tracez(32, 32, /*slow_threshold_us=*/0);
  obs::AccessLog access_log;
  const char* access_log_path = "BENCH_access_log.jsonl";
  INF2VEC_CHECK(access_log.Open(access_log_path).ok());
  obs::RequestObservability request_obs{&rpcz, &tracez, &access_log};

  const auto run_topk = [&](uint32_t i) {
    serve::TopKRequest request;
    request.seeds = seed_sets[0];  // Hot cache: gather noise excluded.
    request.k = 10;
    const auto result = service.TopK(request);
    INF2VEC_CHECK(result.ok()) << result.status().ToString();
    (void)i;
  };
  run_topk(0);  // Warm the seed cache before either arm is timed.

  std::vector<uint64_t> bare_us, traced_us;
  std::vector<double> obs_ratios;
  for (uint32_t i = 0; i < kObsPairs; ++i) {
    const uint64_t bare_start = NowUs();
    run_topk(i);
    bare_us.push_back(NowUs() - bare_start);

    const uint64_t traced_start = NowUs();
    {
      obs::RequestScope scope(request_obs, "GET", "/topk", "");
      run_topk(i);
      scope.set_status(200);
    }  // Scope teardown (record assembly + log append) is on the clock.
    traced_us.push_back(NowUs() - traced_start);
    obs_ratios.push_back(static_cast<double>(traced_us.back()) /
                         static_cast<double>(bare_us.back()));
  }
  std::sort(obs_ratios.begin(), obs_ratios.end());
  const double obs_overhead = obs_ratios[obs_ratios.size() / 2] - 1.0;
  const double bare_p50 = PercentileUs(bare_us, 0.50);
  const double traced_p50 = PercentileUs(traced_us, 0.50);
  INF2VEC_CHECK(access_log.lines_written() == kObsPairs);
  access_log.Close();
  std::remove(access_log_path);

  // ---- HTTP arms: the epoll server end to end over loopback. ----
  // The server fronts the int8 service (the ROADMAP's serving deployment
  // shape). Worker count matches the client count so a full /topk
  // coalition can park its followers while the leader scans.
  obs::StatsServerOptions http_options;
  http_options.num_workers = kHttpClients;
  obs::StatsServer http_server(http_options,
                               &obs::MetricsRegistry::Default());
  serve::RegisterServeEndpoints(&http_server, &int8_service);
  INF2VEC_CHECK(http_server.Start().ok());
  const uint16_t http_port = http_server.port();

  std::string hot_seeds_csv;
  for (size_t i = 0; i < seed_sets[0].size(); ++i) {
    if (i > 0) hot_seeds_csv += ',';
    hot_seeds_csv += std::to_string(seed_sets[0][i]);
  }
  const auto score_request = [&](uint32_t i, bool keep_alive) {
    return "GET /score?candidate=" + std::to_string((i * 13) % kNumUsers) +
           "&seeds=" + hot_seeds_csv + " HTTP/1.1\r\nHost: bench\r\n" +
           (keep_alive ? std::string()
                       : std::string("Connection: close\r\n")) +
           "\r\n";
  };

  // Serial baseline: a fresh TCP connection per request, one in flight —
  // what every request paid before keep-alive.
  const ArmStats http_serial = RunArm(kHttpSerialRequests, [&](uint32_t i) {
    BenchConn conn(http_port);
    INF2VEC_CHECK(conn.ok());
    INF2VEC_CHECK(conn.Send(score_request(i, /*keep_alive=*/false)));
    INF2VEC_CHECK(conn.ReadResponse() == 200);
  });

  // Closed-loop concurrent arm: keep-alive clients sending pipelined
  // bursts. Each response's latency is measured from its burst's send
  // time, so head-of-line waits inside a burst are on the clock. Bursts
  // are prebuilt outside the timed region — client-side string assembly
  // is not server capacity, and on a small host it would steal the very
  // cores being measured.
  std::vector<std::vector<std::string>> bursts(kHttpClients);
  for (uint32_t c = 0; c < kHttpClients; ++c) {
    bursts[c].reserve(kBurstsPerClient);
    for (uint32_t b = 0; b < kBurstsPerClient; ++b) {
      std::string burst;
      for (uint32_t d = 0; d < kPipelineDepth; ++d) {
        burst += score_request(c * 7919 + b * kPipelineDepth + d, true);
      }
      bursts[c].push_back(std::move(burst));
    }
  }
  std::vector<uint64_t> concurrent_us;
  std::mutex concurrent_mu;
  const WallTimer concurrent_wall;
  {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kHttpClients; ++c) {
      clients.emplace_back([&, c] {
        BenchConn conn(http_port);
        INF2VEC_CHECK(conn.ok());
        std::vector<uint64_t> local;
        local.reserve(kBurstsPerClient * kPipelineDepth);
        for (uint32_t b = 0; b < kBurstsPerClient; ++b) {
          const uint64_t start = NowUs();
          INF2VEC_CHECK(conn.Send(bursts[c][b]));
          for (uint32_t d = 0; d < kPipelineDepth; ++d) {
            INF2VEC_CHECK(conn.ReadResponse() == 200);
            local.push_back(NowUs() - start);
          }
        }
        std::lock_guard<std::mutex> lock(concurrent_mu);
        concurrent_us.insert(concurrent_us.end(), local.begin(),
                             local.end());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  ArmStats http_concurrent;
  http_concurrent.wall_ms = concurrent_wall.ElapsedMillis();
  http_concurrent.qps = static_cast<double>(concurrent_us.size()) /
                        (http_concurrent.wall_ms / 1000.0);
  http_concurrent.p50_us = PercentileUs(concurrent_us, 0.50);
  http_concurrent.p99_us = PercentileUs(concurrent_us, 0.99);

  // Open-loop arm: paced arrivals at a fixed rate. Latency is measured
  // from each request's SCHEDULED arrival time, so a sender that falls
  // behind charges the queueing delay to the requests it delayed (the
  // coordinated-omission correction). 429 sheds are tallied, not fatal —
  // that is the admission queue doing its job.
  std::vector<uint64_t> open_loop_us;
  std::mutex open_loop_mu;
  std::atomic<uint64_t> open_loop_shed{0};
  const double arrival_interval_us =
      1e6 * kOpenLoopThreads / kOpenLoopRateQps;
  const WallTimer open_loop_wall;
  {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kOpenLoopThreads; ++c) {
      clients.emplace_back([&, c] {
        BenchConn conn(http_port);
        INF2VEC_CHECK(conn.ok());
        std::vector<uint64_t> local;
        local.reserve(kOpenLoopPerThread);
        const uint64_t t0 = NowUs();
        for (uint32_t i = 0; i < kOpenLoopPerThread; ++i) {
          const uint64_t due =
              t0 + static_cast<uint64_t>(i * arrival_interval_us);
          const uint64_t now = NowUs();
          if (now < due) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(due - now));
          }
          INF2VEC_CHECK(conn.Send(score_request(c * 104729u + i, true)));
          const int status = conn.ReadResponse();
          if (status == 429) {
            open_loop_shed.fetch_add(1);
          } else {
            INF2VEC_CHECK(status == 200) << "status " << status;
          }
          local.push_back(NowUs() - due);
        }
        std::lock_guard<std::mutex> lock(open_loop_mu);
        open_loop_us.insert(open_loop_us.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  ArmStats http_open_loop;
  http_open_loop.wall_ms = open_loop_wall.ElapsedMillis();
  http_open_loop.qps = static_cast<double>(open_loop_us.size()) /
                       (http_open_loop.wall_ms / 1000.0);
  http_open_loop.p50_us = PercentileUs(open_loop_us, 0.50);
  http_open_loop.p99_us = PercentileUs(open_loop_us, 0.99);

  // Coalescing arm: every client asks for the SAME generation, seed set,
  // and k, so concurrent arrivals join the in-flight leader's scan.
  // Aggregate QPS beats the serial topk_int8 rate by roughly the
  // coalition size — the table is not scanned any faster, it is scanned
  // once per coalition.
  const std::string topk_target = "GET /topk?seeds=" + hot_seeds_csv +
                                  "&k=10 HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::vector<uint64_t> coalesce_us;
  std::mutex coalesce_mu;
  std::atomic<uint64_t> coalesced_responses{0};
  const WallTimer coalesce_wall;
  {
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kCoalesceClients; ++c) {
      clients.emplace_back([&] {
        BenchConn conn(http_port);
        INF2VEC_CHECK(conn.ok());
        std::vector<uint64_t> local;
        local.reserve(kCoalesceRounds);
        for (uint32_t r = 0; r < kCoalesceRounds; ++r) {
          const uint64_t start = NowUs();
          INF2VEC_CHECK(conn.Send(topk_target));
          bool coalesced = false;
          INF2VEC_CHECK(conn.ReadResponse(&coalesced) == 200);
          if (coalesced) coalesced_responses.fetch_add(1);
          local.push_back(NowUs() - start);
        }
        std::lock_guard<std::mutex> lock(coalesce_mu);
        coalesce_us.insert(coalesce_us.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : clients) t.join();
  }
  ArmStats topk_coalesce;
  topk_coalesce.wall_ms = coalesce_wall.ElapsedMillis();
  topk_coalesce.qps = static_cast<double>(coalesce_us.size()) /
                      (topk_coalesce.wall_ms / 1000.0);
  topk_coalesce.p50_us = PercentileUs(coalesce_us, 0.50);
  topk_coalesce.p99_us = PercentileUs(coalesce_us, 0.99);
  http_server.Stop();

  const double http_speedup = http_concurrent.qps / http_serial.qps;
  const double http_cores =
      static_cast<double>(std::thread::hardware_concurrency());
  const double http_speedup_gate =
      std::max(kHttpSpeedupGateFloor,
               kHttpSpeedupFullGate *
                   std::min(1.0, http_cores / kHttpSpeedupGateCores));
  const bool http_speedup_pass = http_speedup >= http_speedup_gate &&
                                 http_concurrent.p99_us < kHttpP99GateUs;
  const double coalesce_rate =
      static_cast<double>(coalesced_responses.load()) /
      static_cast<double>(coalesce_us.size());
  const double coalesce_speedup = topk_coalesce.qps / topk_int8.qps;

  std::printf("%-14s %10s %12s %12s %12s\n", "arm", "wall ms", "qps",
              "p50 us", "p99 us");
  const auto print_arm = [](const char* name, const ArmStats& s, double qps) {
    std::printf("%-14s %10.1f %12.0f %12.0f %12.0f\n", name, s.wall_ms, qps,
                s.p50_us, s.p99_us);
  };
  print_arm("score_cold", cold, cold.qps);
  print_arm("score_cached", cached, cached.qps);
  print_arm("topk", topk, topk.qps);
  print_arm("topk_int8", topk_int8, topk_int8.qps);
  print_arm("batch", batch, batch_items_per_sec);
  print_arm("http_serial", http_serial, http_serial.qps);
  print_arm("http_concurrent", http_concurrent, http_concurrent.qps);
  print_arm("http_open_loop", http_open_loop, http_open_loop.qps);
  print_arm("topk_coalesce", topk_coalesce, topk_coalesce.qps);

  std::printf(
      "\nhttp serving: %.1fx concurrent speedup over conn-per-request "
      "(gate: >= %.1fx, the %.0fx full target scaled to %.0f/%.0f cores), "
      "concurrent p99 %.0fus (gate: < %.0fus) -> %s\n",
      http_speedup, http_speedup_gate, kHttpSpeedupFullGate, http_cores,
      kHttpSpeedupGateCores, http_concurrent.p99_us, kHttpP99GateUs,
      http_speedup_pass ? "pass" : "FAIL");
  std::printf(
      "open loop @ %.0f qps: p99 %.0fus, %llu shed (429)\n",
      kOpenLoopRateQps, http_open_loop.p99_us,
      static_cast<unsigned long long>(open_loop_shed.load()));
  std::printf(
      "topk coalescing: %.0f%% of concurrent same-seed requests shared a "
      "scan, %.2fx the serial topk_int8 rate\n",
      100.0 * coalesce_rate, coalesce_speedup);

  std::printf(
      "\nrequest obs (rpcz+tracez+access-log): bare p50 %.0fus, traced "
      "p50 %.0fus, overhead %+.2f%% (gate: < 2%%)\n",
      bare_p50, traced_p50, 100.0 * obs_overhead);

  const double int8_table_bytes =
      static_cast<double>(int8_service.AccountedBytes());
  std::printf(
      "\nint8 topk: %.2fx qps, table %.0f -> %.0f bytes (%.2fx smaller)\n",
      topk_int8.qps / topk.qps, fp64_table_bytes, int8_table_bytes,
      fp64_table_bytes / int8_table_bytes);

  const auto& cache = service.seed_cache();
  std::printf("\nseed cache: %zu entries, %llu hits, %llu misses\n",
              cache.size(), static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));

  obs::HeapProfiler& heap = obs::HeapProfiler::Default();
  std::printf(
      "\nmemory: accounted %.0f MB / rss %.0f MB = %.2f coverage "
      "(gate: >= 0.80); heap profiler %llu samples, %.0f MB sampled\n",
      static_cast<double>(mem_snap.total_bytes) / (1024.0 * 1024.0),
      static_cast<double>(mem_sample.rss_bytes) / (1024.0 * 1024.0),
      mem_coverage,
      static_cast<unsigned long long>(heap.total_samples()),
      static_cast<double>(heap.sampled_alloc_bytes()) / (1024.0 * 1024.0));

  BenchReport report("serve");
  report.SetConfig("num_users", static_cast<int64_t>(kNumUsers));
  report.SetConfig("dim", static_cast<int64_t>(kDim));
  report.SetConfig("seeds_per_set", static_cast<int64_t>(kSeedsPerSet));
  report.SetConfig("seed_sets", static_cast<int64_t>(kNumSeedSets));
  report.SetConfig("batch_size", static_cast<int64_t>(kBatchSize));
  report.SetConfig("http_clients", static_cast<int64_t>(kHttpClients));
  report.SetConfig("http_pipeline_depth",
                   static_cast<int64_t>(kPipelineDepth));
  report.SetConfig("http_open_loop_rate_qps", kOpenLoopRateQps);
  report.SetSummary("score_cached_p50_us", cached.p50_us);
  report.SetSummary("score_cached_p99_us", cached.p99_us);
  report.SetSummary("batch_items_per_sec", batch_items_per_sec);
  report.SetSummary("int8_topk_speedup", topk_int8.qps / topk.qps);
  report.SetSummary("int8_table_ratio", fp64_table_bytes / int8_table_bytes);
  report.SetSummary("request_obs_relative_overhead", obs_overhead);
  report.SetSummary("request_obs_gate", 0.02);
  report.SetSummary("request_obs_pass", obs_overhead < 0.02);
  report.SetSummary("http_speedup", http_speedup);
  report.SetSummary("http_speedup_gate", http_speedup_gate);
  report.SetSummary("http_speedup_full_gate", kHttpSpeedupFullGate);
  report.SetSummary("http_cores", http_cores);
  report.SetSummary("http_concurrent_p99_us", http_concurrent.p99_us);
  report.SetSummary("http_p99_gate_us", kHttpP99GateUs);
  report.SetSummary("http_speedup_pass", http_speedup_pass);
  report.SetSummary("http_open_loop_rate_qps", kOpenLoopRateQps);
  report.SetSummary("http_open_loop_p99_us", http_open_loop.p99_us);
  report.SetSummary("http_open_loop_shed", open_loop_shed.load());
  report.SetSummary("topk_coalesce_rate", coalesce_rate);
  report.SetSummary("topk_coalesce_speedup", coalesce_speedup);
  report.SetSummary("mem_accounted_bytes", mem_snap.total_bytes);
  report.SetSummary("mem_rss_bytes", mem_sample.rss_bytes);
  report.SetSummary("mem_coverage", mem_coverage);
  report.SetSummary("mem_coverage_gate", 0.80);
  // Only gate when /proc was readable; accounting itself never depends
  // on it.
  report.SetSummary("mem_coverage_pass",
                    mem_sample.sampled && mem_coverage >= 0.80);
  report.SetSummary("heap_profiler_samples", heap.total_samples());
  report.SetSummary("heap_profiler_sampled_alloc_bytes",
                    heap.sampled_alloc_bytes());

  const auto add_row = [&report](const char* name, const ArmStats& s,
                                 double qps, uint64_t reps) {
    obs::JsonValue& row = report.AddResult(name, s.wall_ms, qps, reps);
    row.Set("p50_us", s.p50_us);
    row.Set("p99_us", s.p99_us);
  };
  add_row("score_cold", cold, cold.qps, kColdQueries);
  add_row("score_cached", cached, cached.qps, kCachedQueries);
  add_row("topk", topk, topk.qps, kTopKQueries);
  add_row("topk_int8", topk_int8, topk_int8.qps, kTopKQueries);
  add_row("batch", batch, batch_items_per_sec,
          static_cast<uint64_t>(kBatchCalls) * kBatchSize);
  add_row("http_serial", http_serial, http_serial.qps, kHttpSerialRequests);
  add_row("http_concurrent", http_concurrent, http_concurrent.qps,
          concurrent_us.size());
  add_row("http_open_loop", http_open_loop, http_open_loop.qps,
          open_loop_us.size());
  add_row("topk_coalesce", topk_coalesce, topk_coalesce.qps,
          coalesce_us.size());
  {
    obs::JsonValue& bare_row = report.AddResult(
        "topk_bare", bare_p50 * kObsPairs / 1000.0,
        1e6 / bare_p50, kObsPairs);
    bare_row.Set("p50_us", bare_p50);
    obs::JsonValue& traced_row = report.AddResult(
        "topk_request_obs", traced_p50 * kObsPairs / 1000.0,
        1e6 / traced_p50, kObsPairs);
    traced_row.Set("p50_us", traced_p50);
  }
  report.Write();

  INF2VEC_CHECK(heap.Stop().ok());
  heap.Reset();
  obs::EnableMetrics(false);
  obs::MetricsRegistry::Default().Reset();
  return 0;
}
