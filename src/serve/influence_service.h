#ifndef INF2VEC_SERVE_INFLUENCE_SERVICE_H_
#define INF2VEC_SERVE_INFLUENCE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "embedding/model_io.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "serve/seed_cache.h"
#include "serve/serving_table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace inf2vec {
namespace serve {

/// Serving knobs; the defaults suit an interactive loopback deployment.
struct ServiceOptions {
  /// Aggregation used when a request does not name one. Unset resolves to
  /// the artifact's metadata (falling back to Ave for legacy v1 models).
  std::optional<Aggregation> aggregation;
  /// LRU entries for repeated seed-set gathers; 0 disables the cache.
  uint32_t seed_cache_capacity = 256;
  /// Per-query budget applied when a request carries no deadline;
  /// 0 = unbounded.
  uint64_t default_deadline_us = 0;
  /// Oversized-request guards: requests beyond these fail fast with
  /// InvalidArgument instead of tying up the serving thread.
  uint32_t max_seeds = 4096;
  uint32_t max_k = 1024;
  uint32_t max_batch = 65536;
  /// Worker threads for ScoreBatch sharding. 1 scores inline; 0 resolves
  /// to all hardware threads.
  uint32_t num_threads = 1;
  /// Targets scanned per deadline check in the top-k scan. 2048 rows of a
  /// K=50 float64 table is ~800KB of streamed reads — long enough to
  /// amortize the clock read, short enough for ~ms deadline granularity.
  uint32_t scan_block = 2048;
  /// Monotonic microsecond clock, injectable so deadline behavior is
  /// deterministically testable. Null uses steady_clock.
  std::function<uint64_t()> clock_us;
  /// Numeric mode of the serving table (`serve --quantize int8`).
  QuantMode quantize = QuantMode::kNone;
};

/// One ScoreActivation-style query: will `candidate` activate given this
/// activated (chronologically ordered) influencer set?
struct ScoreRequest {
  UserId candidate = 0;
  std::vector<UserId> seeds;
  std::optional<Aggregation> aggregation;
  uint64_t deadline_us = 0;  // Overrides the default when nonzero.
};

struct ScoreResult {
  double score = 0.0;
  bool cache_hit = false;
};

/// Top-k influence query: the k users this seed set most influences.
struct TopKRequest {
  std::vector<UserId> seeds;
  uint32_t k = 10;
  std::optional<Aggregation> aggregation;
  uint64_t deadline_us = 0;
  /// Seed users themselves are excluded from the ranking by default.
  bool include_seeds = false;
};

struct TopKEntry {
  UserId user = 0;
  double score = 0.0;
};

/// Ranking order of every top-k result, single node and merged fleet
/// alike: descending score, ties broken by ascending user id.
bool BetterThan(const TopKEntry& a, const TopKEntry& b);

/// Request checks the single node and the shard coordinator share, so
/// both planes refuse a bad request with the same typed error: a seed set
/// must be non-empty, at most `max_seeds` long and name only ids below
/// `num_users` (NotFound otherwise); k must lie in [1, max_k].
Status ValidateSeedSet(const std::vector<UserId>& seeds, uint32_t max_seeds,
                       uint32_t num_users);
Status ValidateK(uint32_t k, uint32_t max_k);

struct TopKResult {
  /// Descending score; ties broken by ascending user id.
  std::vector<TopKEntry> entries;
  bool cache_hit = false;
  /// Candidates ranked, by exact score or by the screen (num_users
  /// minus excluded seeds).
  uint64_t scanned = 0;
  /// True when this result was shared from another request's in-flight
  /// scan (serve::TopKBatcher single-flight coalescing), not scanned for
  /// this request.
  bool coalesced = false;
};

/// Shard-mode top-k over a *transported* seed block (src/shard/): a shard
/// process receives the gathered seed rows on the wire instead of owning
/// them locally, and scans only its local slice. `exclude` carries the
/// coordinator's seed-exclusion set mapped into this shard's local id
/// space (need not be sorted or deduplicated).
struct BlockTopKRequest {
  uint32_t k = 10;
  std::optional<Aggregation> aggregation;
  uint64_t deadline_us = 0;
  std::vector<UserId> exclude;
};

/// Batch scoring: many (candidate, seed set) pairs in one call, sharded
/// over the service's thread pool.
struct BatchItem {
  UserId candidate = 0;
  std::vector<UserId> seeds;
};

struct BatchScoreRequest {
  std::vector<BatchItem> items;
  std::optional<Aggregation> aggregation;
  uint64_t deadline_us = 0;
};

struct BatchScoreResult {
  std::vector<double> scores;  // Parallel to request.items.
  uint64_t cache_hits = 0;
};

/// Online influence-query engine over a loaded model artifact: load ->
/// warm -> query. All query methods are const and safe for concurrent
/// callers (the embedding table is immutable after load; the seed cache
/// and metrics synchronize internally); ScoreBatch additionally
/// serializes its internal thread-pool fan-out so concurrent batch calls
/// queue rather than corrupt the pool.
///
/// Every error is a graceful Result<>: NotFound for unknown users,
/// InvalidArgument for empty/oversized requests, DeadlineExceeded when a
/// query overruns its budget.
class InfluenceService {
 public:
  /// Loads an I2VEMB1/I2VEMB2 artifact from disk.
  static Result<InfluenceService> Load(
      const std::string& model_path, ServiceOptions options,
      obs::MetricsRegistry* registry = &obs::MetricsRegistry::Default());

  /// Wraps an already-loaded artifact (benches, tests, shard serving).
  /// `model_path` is display-only provenance for /modelz.
  static Result<InfluenceService> FromArtifact(
      ModelArtifact artifact, ServiceOptions options,
      obs::MetricsRegistry* registry = &obs::MetricsRegistry::Default(),
      std::string model_path = "<in-memory>");

  InfluenceService(InfluenceService&&) = default;

  /// Touches every row of the serving table once so first queries do not
  /// pay cold page faults; returns the table checksum it computed (and
  /// publishes model gauges as a side effect).
  double Warm() const;

  /// Eq. 7: F({x(u, candidate) : u in seeds}); bit-identical to
  /// EmbeddingPredictor::ScoreActivation on the same store.
  Result<ScoreResult> ScoreActivation(const ScoreRequest& request) const;

  /// Batched, cache-blocked scan over all target embeddings with a
  /// bounded min-heap; scores are bit-identical to brute-force Eq. 7 and
  /// ties break by ascending user id.
  Result<TopKResult> TopK(const TopKRequest& request) const;

  /// Scores every item; one shared deadline for the whole batch.
  Result<BatchScoreResult> ScoreBatch(const BatchScoreRequest& request) const;

  /// Top-k scan driven by an externally supplied seed block (shard serve
  /// mode). Runs the exact same scan loop as TopK() — same kernels, same
  /// comparator, same deadline blocking — so local entries are
  /// bit-identical to the corresponding slice of a single-node scan when
  /// the block's bytes match GatherSeedBlock's output. The block's mode
  /// and dim must match the serving table's.
  Result<TopKResult> TopKWithBlock(const SeedBlock& block,
                                   const BlockTopKRequest& request) const;

  /// Eq. 7 score of one local candidate against a transported seed block;
  /// same bit-identity contract as TopKWithBlock.
  Result<double> ScoreWithBlock(
      const SeedBlock& block, UserId candidate,
      const std::optional<Aggregation>& aggregation) const;

  const ServingTable& table() const { return table_; }
  uint32_t num_users() const { return table_.num_users(); }
  uint32_t dim() const { return table_.dim(); }
  const ModelMetadata& metadata() const { return metadata_; }
  QuantMode quant_mode() const { return table_.mode(); }
  Aggregation default_aggregation() const { return default_aggregation_; }
  uint32_t max_seeds() const { return options_.max_seeds; }
  const std::string& model_path() const { return model_path_; }

  const SeedBlockCache& seed_cache() const { return *cache_; }

  /// The /modelz payload: artifact metadata, table shape, serving config,
  /// cache statistics.
  obs::JsonValue DescribeJson() const;

  /// Bytes this service accounts into the memory registry: its one
  /// serving table.
  uint64_t AccountedBytes() const { return table_bytes_.bytes(); }

  /// Bytes resident while this model loaded (ServingTable::
  /// load_peak_bytes): what a hot-swap preflight must assume loading the
  /// next generation costs. Above AccountedBytes() in int8 mode, where
  /// every load reads the fp64 table before freeing it.
  uint64_t LoadPeakBytes() const { return table_.load_peak_bytes(); }

 private:
  InfluenceService(ModelArtifact artifact, ServiceOptions options,
                   std::string model_path, obs::MetricsRegistry* registry);

  uint64_t NowUs() const;
  /// Counts a failed request and passes its status through.
  Status Fail(Status status) const;
  /// Effective deadline in absolute us-since-start terms; 0 = none.
  uint64_t ResolveDeadline(uint64_t request_deadline_us,
                           uint64_t start_us) const;
  Status ValidateSeeds(const std::vector<UserId>& seeds) const {
    return ValidateSeedSet(seeds, options_.max_seeds, num_users());
  }
  Status ValidateCandidate(UserId candidate) const;
  Aggregation ResolveAggregation(
      const std::optional<Aggregation>& requested) const;
  /// A transported seed block must look exactly like one this service
  /// would gather itself (seed count within limits, then the table's
  /// shape and mode check).
  Status ValidateBlock(const SeedBlock& block) const;
  /// The single-candidate score path behind ScoreActivation and
  /// ScoreWithBlock: Eq. 7 under a kernel_scan span, then the latency
  /// record for a request that started at `start`.
  double ScoreOne(const SeedBlock& block, UserId candidate,
                  Aggregation aggregation, uint64_t start) const;
  /// The shared bounded-heap scan core behind TopK and TopKWithBlock.
  /// `excluded` need not be sorted or unique; `deadline` is absolute (0 =
  /// none); increments error/deadline metrics on failure.
  Result<TopKResult> ScanTopK(const SeedBlock& block, uint32_t k,
                              Aggregation aggregation,
                              std::vector<UserId> excluded,
                              uint64_t deadline, uint64_t num_seeds) const;
  /// The seed block for `seeds` from the cache (gathered on a miss) under
  /// a cache_lookup span, counting the hit or miss.
  std::shared_ptr<const SeedBlock> LookupBlock(
      const std::vector<UserId>& seeds, bool* cache_hit) const;

  ServiceOptions options_;
  ModelMetadata metadata_;
  ServingTable table_;
  std::string model_path_;
  Aggregation default_aggregation_ = Aggregation::kAve;
  std::unique_ptr<SeedBlockCache> cache_;
  std::unique_ptr<ThreadPool> batch_pool_;          // Null when 1 thread.
  std::unique_ptr<std::mutex> batch_mu_;            // Guards pool posting.
  /// The table's byte reservation under its mode's gauge
  /// (serve.embedding_table or serve.quantized_table); released on
  /// destruction, so a retired generation's table vanishes from /memz
  /// when the last shared_ptr drops.
  obs::ScopedBytes table_bytes_;

  // Metric handles (registry-owned; valid for the registry's lifetime).
  obs::Counter* score_requests_;
  obs::Counter* topk_requests_;
  obs::Counter* topk_rescored_;  // Candidates scored exactly behind the screen.
  obs::Counter* batch_requests_;
  obs::Counter* batch_items_;
  obs::Counter* errors_;
  obs::Counter* deadline_exceeded_;
  obs::HistogramMetric* score_latency_us_;
  obs::HistogramMetric* topk_latency_us_;
  obs::HistogramMetric* batch_latency_us_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
};

}  // namespace serve
}  // namespace inf2vec

#endif  // INF2VEC_SERVE_INFLUENCE_SERVICE_H_
