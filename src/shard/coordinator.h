// Scatter-gather coordinator over N shard services (the root side of the
// distributed-llama-style root/worker split). A query runs two phases:
//
//   gather:  seed source rows are fetched from the shards that own them
//            (POST /gather, grouped per owner, fetched concurrently);
//   scatter: the assembled seed block is broadcast to every shard
//            (POST /topk), each shard scans its local slice, and the
//            coordinator merges the per-shard rankings.
//
// Merge equality: every shard runs the identical bounded-heap scan over
// its slice of the candidate space with the identical seed-block bytes,
// so each global top-k entry appears in its owner shard's local top-k
// (at most k-1 entries can beat it there). Merging the unions with the
// same comparator (descending score, ascending global id on ties —
// global ids are unique, so the order is total) and truncating to k
// therefore reproduces the single-node ranking bit for bit.
//
// Degradation: every backend call runs under a per-request deadline on a
// poll()-driven client, so a dead or wedged shard can never hang a
// request. Missing shards are reported in `shards_missing` and the
// response is marked degraded (HTTP 206 at the endpoint layer); a lost
// *gather* owner is fatal for the query (seed rows unavailable -> no
// shard could score correctly), reported as 503 with the same shape.
#ifndef INF2VEC_SHARD_COORDINATOR_H_
#define INF2VEC_SHARD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "obs/http_client.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/request_obs.h"
#include "serve/influence_service.h"
#include "util/status.h"

namespace inf2vec {
namespace shard {

struct CoordinatorOptions {
  /// "host:port" of every shard service; order need not match shard
  /// index (Connect sorts by range).
  std::vector<std::string> backends;
  /// Per-backend call budget (connect + send + read) and the scan
  /// deadline forwarded to shards; the knob behind `--shard-deadline-ms`.
  uint64_t shard_deadline_ms = 250;
  /// Startup budget for the /shardz topology fetch, per backend.
  uint64_t connect_deadline_ms = 2000;
  uint32_t max_k = 1024;
  uint32_t max_seeds = 4096;
  /// Per-backend rpcz rows ("shard:<addr>/topk") land here when set.
  obs::RpczRegistry* rpcz = nullptr;
  obs::MetricsRegistry* registry = &obs::MetricsRegistry::Default();
};

/// Mirrors serve::TopKRequest for the coordinator's global id space.
struct CoordTopKRequest {
  std::vector<UserId> seeds;
  uint32_t k = 10;
  std::optional<Aggregation> aggregation;
  uint64_t deadline_us = 0;  // 0 = shard_deadline_ms per call.
  bool include_seeds = false;
};

struct CoordTopKResult {
  /// Merged ranking, bit-identical to single-node TopK when no shard is
  /// missing; the best available partial ranking otherwise.
  std::vector<serve::TopKEntry> entries;
  uint64_t scanned = 0;  // Summed over responding shards.
  bool degraded = false;
  std::vector<uint32_t> shards_missing;  // Shard indices, ascending.
  /// True when a gather owner was unreachable: no scan ran at all and
  /// `entries` is empty (the endpoint layer maps this to 503).
  bool gather_failed = false;
};

struct CoordScoreResult {
  double score = 0.0;
  uint32_t shard_index = 0;  // Shard that scored the candidate.
};

class ShardCoordinator {
 public:
  /// Fetches /shardz from every backend and validates the topology: one
  /// backend per shard index, identical model hash / total_users / dim /
  /// quantization everywhere, ranges tiling [0, total_users). Every
  /// backend must be reachable at startup; loss is tolerated (degraded)
  /// afterwards.
  static Result<ShardCoordinator> Connect(CoordinatorOptions options);

  ShardCoordinator(ShardCoordinator&&) = default;

  /// Scatter-gather top-k (see file header). Validation errors return a
  /// Status; shard loss returns ok() with degraded/shards_missing set.
  Result<CoordTopKResult> TopK(const CoordTopKRequest& request) const;

  /// Gathers seed rows, then scores `candidate` on its owner shard.
  Result<CoordScoreResult> Score(UserId candidate,
                                 const std::vector<UserId>& seeds,
                                 const std::optional<Aggregation>& aggregation,
                                 uint64_t deadline_us) const;

  uint32_t num_shards() const;
  uint32_t total_users() const { return total_users_; }
  uint32_t dim() const { return dim_; }
  serve::QuantMode mode() const { return mode_; }
  bool quantized() const { return mode_ == serve::QuantMode::kInt8; }
  const std::string& model_hash() const { return model_hash_; }

  /// The coordinator /shardz payload: cluster topology.
  obs::JsonValue DescribeJson() const;

 private:
  /// One backend: address, owned range, and a small pool of keep-alive
  /// clients (one checked out per concurrent call; dropped, not
  /// returned, after a transport failure).
  struct Backend {
    std::string address;
    std::string host;
    uint16_t port = 0;
    uint32_t shard_index = 0;
    uint32_t begin_user = 0;
    uint32_t end_user = 0;
    mutable std::mutex pool_mu;
    mutable std::vector<std::unique_ptr<obs::HttpClient>> pool;
  };

  explicit ShardCoordinator(CoordinatorOptions options);

  std::unique_ptr<obs::HttpClient> AcquireClient(const Backend& backend) const;
  void ReleaseClient(const Backend& backend,
                     std::unique_ptr<obs::HttpClient> client) const;
  /// One deadline-bounded POST with rpcz + trace accounting. Returns the
  /// parsed JSON body on HTTP 200; a Status naming the failure otherwise.
  Result<obs::JsonValue> CallBackend(const Backend& backend,
                                     const std::string& target,
                                     const std::string& body,
                                     uint64_t deadline_ms) const;
  /// Owner of a global user id (ranges tile the id space).
  const Backend& OwnerOf(UserId user) const;
  /// Per-backend call budget: shard_deadline_ms, clipped to a nonzero
  /// request budget.
  uint64_t CallDeadlineMs(uint64_t deadline_us) const;
  /// Phase 1: fetch + assemble the transported seed block. On failure
  /// fills `missing` with the unreachable owners' shard indices.
  Result<serve::SeedBlock> GatherBlock(const std::vector<UserId>& seeds,
                                       uint64_t deadline_ms,
                                       std::vector<uint32_t>* missing) const;

  CoordinatorOptions options_;
  /// unique_ptr elements: Backend holds a mutex and handlers capture
  /// stable addresses.
  std::vector<std::unique_ptr<Backend>> backends_;  // Sorted by begin_user.
  uint32_t total_users_ = 0;
  uint32_t dim_ = 0;
  serve::QuantMode mode_ = serve::QuantMode::kNone;
  std::string model_hash_;

  // Metric handles (registry-owned).
  obs::Counter* shard_timeouts_ = nullptr;
  obs::Counter* shard_errors_ = nullptr;
  obs::Counter* degraded_responses_ = nullptr;
};

/// Registers the public query surface on `server`, mirroring the
/// single-node serve API in the global id space:
///
///   GET /topk?seeds=A,B[&k=10][&aggregation=Ave][&deadline_us=N]
///            [&include_seeds=1|true]
///   GET /score?candidate=U&seeds=A,B[&aggregation=Ave][&deadline_us=N]
///   GET /shardz
///
/// A degraded /topk answers 206 Partial Content with `degraded: true`
/// and the missing shard indices; a query no shard could answer (all
/// down, or a gather owner down) answers 503 with the same fields. Query
/// parameters go through serve's parsers (serve_endpoints.h), so both
/// planes accept and refuse exactly the same inputs.
void RegisterCoordinatorEndpoints(obs::StatsServer* server,
                                  const ShardCoordinator* coordinator);

}  // namespace shard
}  // namespace inf2vec

#endif  // INF2VEC_SHARD_COORDINATOR_H_
