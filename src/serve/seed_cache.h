#ifndef INF2VEC_SERVE_SEED_CACHE_H_
#define INF2VEC_SERVE_SEED_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/social_graph.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "serve/serving_table.h"

namespace inf2vec {
namespace serve {

/// Thread-safe LRU cache of SeedBlocks keyed by the exact seed-id
/// sequence (order matters: the Latest aggregator is order-sensitive, so
/// two orderings are distinct queries). Values are shared_ptrs so a hit
/// stays valid after eviction while a reader still holds it. A cache
/// instance belongs to one service and therefore one serving table, so
/// the key does not encode the table's mode.
class SeedBlockCache {
 public:
  /// `capacity` in entries; 0 disables caching (every Get misses and
  /// nothing is stored).
  explicit SeedBlockCache(size_t capacity);
  ~SeedBlockCache();

  SeedBlockCache(const SeedBlockCache&) = delete;
  SeedBlockCache& operator=(const SeedBlockCache&) = delete;

  /// Returns the cached block for `seeds`, gathering from `table` and
  /// inserting on miss. `*cache_hit` (optional) reports which path ran.
  std::shared_ptr<const SeedBlock> Get(const ServingTable& table,
                                       const std::vector<UserId>& seeds,
                                       bool* cache_hit);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  uint64_t hits() const;
  uint64_t misses() const;

  /// Live bytes across every retained block (keys + block payloads),
  /// maintained incrementally at insert/replace/evict. With fp64 blocks
  /// each entry costs ~8x its int8 counterpart — the per-entry stride gap
  /// the quantized mode exists to win. Also pushed into the
  /// "serve.seed_cache" memory gauge and the serve.seed_cache_bytes
  /// metric gauge.
  uint64_t total_bytes() const;

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const SeedBlock>>;

  /// Bytes charged for one retained entry (key + block).
  static uint64_t EntryBytes(const Entry& entry);
  /// Applies a byte delta to bytes_ (under mu_) and both exported gauges.
  void AccountLocked(int64_t delta);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recent.
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t bytes_ = 0;  // Guarded by mu_.
  obs::MemoryGauge* mem_gauge_;   // Registry-owned.
  obs::Gauge* bytes_metric_;      // serve.seed_cache_bytes.
};

}  // namespace serve
}  // namespace inf2vec

#endif  // INF2VEC_SERVE_SEED_CACHE_H_
