#include "serve/seed_cache.h"

#include "obs/trace.h"

namespace inf2vec {
namespace serve {
namespace {

/// Miss-path gather under a span: a request trace shows "seed_gather" time
/// exactly when the cache missed, so hit/miss is legible from the phase
/// breakdown alone.
std::shared_ptr<const SeedBlock> TracedGather(
    const ServingTable& table, const std::vector<UserId>& seeds) {
  obs::TraceSpan span("seed_gather", "serve");
  span.SetAttr("seed_count", static_cast<uint64_t>(seeds.size()));
  return std::make_shared<const SeedBlock>(GatherSeedBlock(table, seeds));
}

/// Exact binary key: the id sequence verbatim. Cheap to build and free of
/// separator ambiguity.
std::string CacheKey(const std::vector<UserId>& seeds) {
  return std::string(reinterpret_cast<const char*>(seeds.data()),
                     seeds.size() * sizeof(UserId));
}

}  // namespace

SeedBlockCache::SeedBlockCache(size_t capacity)
    : capacity_(capacity),
      mem_gauge_(
          obs::MemoryRegistry::Default().GetGauge("serve.seed_cache")),
      bytes_metric_(obs::MetricsRegistry::Default().GetGauge(
          "serve.seed_cache_bytes")) {}

SeedBlockCache::~SeedBlockCache() {
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes_ != 0) AccountLocked(-static_cast<int64_t>(bytes_));
}

uint64_t SeedBlockCache::EntryBytes(const Entry& entry) {
  uint64_t bytes = entry.first.capacity();
  if (entry.second != nullptr) {
    bytes += sizeof(SeedBlock) + entry.second->ApproxBytes();
  }
  return bytes;
}

void SeedBlockCache::AccountLocked(int64_t delta) {
  bytes_ = static_cast<uint64_t>(static_cast<int64_t>(bytes_) + delta);
  mem_gauge_->Add(delta);
  bytes_metric_->Set(static_cast<double>(bytes_));
}

std::shared_ptr<const SeedBlock> SeedBlockCache::Get(
    const ServingTable& table, const std::vector<UserId>& seeds,
    bool* cache_hit) {
  if (capacity_ == 0) {
    if (cache_hit != nullptr) *cache_hit = false;
    std::shared_ptr<const SeedBlock> block = TracedGather(table, seeds);
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return block;
  }

  const std::string key = CacheKey(seeds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second->second;
    }
  }

  // Gather outside the lock: misses on distinct keys proceed in parallel
  // (two racing misses on the same key both insert; last one wins, both
  // blocks are identical).
  std::shared_ptr<const SeedBlock> block = TracedGather(table, seeds);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      const int64_t replaced = static_cast<int64_t>(EntryBytes(*it->second));
      it->second->second = block;
      AccountLocked(static_cast<int64_t>(EntryBytes(*it->second)) - replaced);
    } else {
      lru_.emplace_front(key, block);
      index_[key] = lru_.begin();
      AccountLocked(static_cast<int64_t>(EntryBytes(lru_.front())));
      while (lru_.size() > capacity_) {
        AccountLocked(-static_cast<int64_t>(EntryBytes(lru_.back())));
        index_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  if (cache_hit != nullptr) *cache_hit = false;
  return block;
}

size_t SeedBlockCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t SeedBlockCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t SeedBlockCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

uint64_t SeedBlockCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace serve
}  // namespace inf2vec
