#include "serve/influence_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "kernels/kernels.h"
#include "obs/trace.h"

namespace inf2vec {
namespace serve {
namespace {

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool BetterThan(const TopKEntry& a, const TopKEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.user < b.user;
}

InfluenceService::InfluenceService(ModelArtifact artifact,
                                   ServiceOptions options,
                                   std::string model_path,
                                   obs::MetricsRegistry* registry)
    : options_(std::move(options)),
      metadata_(std::move(artifact.metadata)),
      table_(ServingTable::FromArtifact(&artifact, options_.quantize)),
      model_path_(std::move(model_path)),
      cache_(std::make_unique<SeedBlockCache>(options_.seed_cache_capacity)),
      batch_mu_(std::make_unique<std::mutex>()) {
  if (options_.aggregation.has_value()) {
    default_aggregation_ = *options_.aggregation;
  } else {
    const Result<Aggregation> parsed =
        ParseAggregation(metadata_.aggregation);
    default_aggregation_ = parsed.ok() ? parsed.value() : Aggregation::kAve;
  }
  const uint32_t threads =
      ThreadPool::ResolveThreadCount(options_.num_threads);
  if (threads > 1) batch_pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.scan_block == 0) options_.scan_block = 2048;

  table_bytes_ = obs::ScopedBytes(
      obs::MemoryRegistry::Default().GetGauge(std::string("serve.") +
                                              table_.name()),
      table_.bytes());

  score_requests_ = registry->GetCounter("serve.score.requests");
  topk_requests_ = registry->GetCounter("serve.topk.requests");
  topk_rescored_ = registry->GetCounter("serve.topk.rescored");
  batch_requests_ = registry->GetCounter("serve.batch.requests");
  batch_items_ = registry->GetCounter("serve.batch.items");
  errors_ = registry->GetCounter("serve.errors");
  deadline_exceeded_ = registry->GetCounter("serve.deadline_exceeded");
  score_latency_us_ = registry->GetHistogram("serve.score.latency_us",
                                             obs::DurationBoundariesUs());
  topk_latency_us_ = registry->GetHistogram("serve.topk.latency_us",
                                            obs::DurationBoundariesUs());
  batch_latency_us_ = registry->GetHistogram("serve.batch.latency_us",
                                             obs::DurationBoundariesUs());
  cache_hits_ = registry->GetCounter("serve.seed_cache.hits");
  cache_misses_ = registry->GetCounter("serve.seed_cache.misses");
}

Result<InfluenceService> InfluenceService::Load(
    const std::string& model_path, ServiceOptions options,
    obs::MetricsRegistry* registry) {
  Result<ModelArtifact> artifact = LoadModelArtifact(model_path);
  INF2VEC_RETURN_IF_ERROR(artifact.status());
  if (artifact.value().shard.has_value()) {
    // A slice only answers for its own user range; serving it as a whole
    // model would silently mis-rank. The shard serve mode loads these.
    return Status::FailedPrecondition(
        "model is a shard slice (I2VSHRD1 section present); serve it with "
        "`serve --shard`: " +
        model_path);
  }
  return InfluenceService(std::move(artifact).value(), std::move(options),
                          model_path, registry);
}

Result<InfluenceService> InfluenceService::FromArtifact(
    ModelArtifact artifact, ServiceOptions options,
    obs::MetricsRegistry* registry, std::string model_path) {
  if (artifact.store.num_users() == 0) {
    return Status::InvalidArgument("cannot serve an empty embedding store");
  }
  return InfluenceService(std::move(artifact), std::move(options),
                          std::move(model_path), registry);
}

uint64_t InfluenceService::NowUs() const {
  return options_.clock_us ? options_.clock_us() : SteadyNowUs();
}

Status InfluenceService::Fail(Status status) const {
  if (obs::MetricsEnabled()) errors_->Increment();
  return status;
}

uint64_t InfluenceService::ResolveDeadline(uint64_t request_deadline_us,
                                           uint64_t start_us) const {
  const uint64_t budget = request_deadline_us != 0
                              ? request_deadline_us
                              : options_.default_deadline_us;
  return budget == 0 ? 0 : start_us + budget;
}

Status ValidateSeedSet(const std::vector<UserId>& seeds, uint32_t max_seeds,
                       uint32_t num_users) {
  if (seeds.empty()) {
    return Status::InvalidArgument(
        "seed set is empty: at least one activated influencer is required");
  }
  if (seeds.size() > max_seeds) {
    return Status::InvalidArgument("seed set too large: " +
                                   std::to_string(seeds.size()) + " > max " +
                                   std::to_string(max_seeds));
  }
  for (UserId u : seeds) {
    if (u >= num_users) {
      return Status::NotFound("unknown seed user " + std::to_string(u) +
                              " (model has " + std::to_string(num_users) +
                              " users)");
    }
  }
  return Status::OK();
}

Status ValidateK(uint32_t k, uint32_t max_k) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > max_k) {
    return Status::InvalidArgument("k too large: " + std::to_string(k) +
                                   " > max " + std::to_string(max_k));
  }
  return Status::OK();
}

Status InfluenceService::ValidateCandidate(UserId candidate) const {
  if (candidate >= num_users()) {
    return Status::NotFound("unknown candidate user " +
                            std::to_string(candidate));
  }
  return Status::OK();
}

Aggregation InfluenceService::ResolveAggregation(
    const std::optional<Aggregation>& requested) const {
  return requested.value_or(default_aggregation_);
}

double InfluenceService::Warm() const {
  const double checksum = table_.Warm();
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetGauge("serve.model.num_users")->Set(num_users());
    registry.GetGauge("serve.model.dim")->Set(dim());
  }
  return checksum;
}

std::shared_ptr<const SeedBlock> InfluenceService::LookupBlock(
    const std::vector<UserId>& seeds, bool* cache_hit) const {
  std::shared_ptr<const SeedBlock> block;
  {
    obs::TraceSpan span("cache_lookup", "serve");
    block = cache_->Get(table_, seeds, cache_hit);
    span.SetAttr("cache_hit", *cache_hit);
  }
  if (obs::MetricsEnabled()) {
    (*cache_hit ? cache_hits_ : cache_misses_)->Increment();
  }
  return block;
}

double InfluenceService::ScoreOne(const SeedBlock& block, UserId candidate,
                                  Aggregation aggregation,
                                  uint64_t start) const {
  double score;
  {
    obs::TraceSpan span("kernel_scan", "serve");
    span.SetAttr("seed_count", static_cast<uint64_t>(block.num_seeds()));
    score = table_.Score(block, candidate, aggregation);
  }
  if (obs::MetricsEnabled()) score_latency_us_->Record(NowUs() - start);
  return score;
}

Result<ScoreResult> InfluenceService::ScoreActivation(
    const ScoreRequest& request) const {
  const uint64_t start = NowUs();
  if (obs::MetricsEnabled()) score_requests_->Increment();

  const Status candidate_ok = ValidateCandidate(request.candidate);
  if (!candidate_ok.ok()) return Fail(candidate_ok);
  const Status seeds_ok = ValidateSeeds(request.seeds);
  if (!seeds_ok.ok()) return Fail(seeds_ok);

  const uint64_t deadline = ResolveDeadline(request.deadline_us, start);
  bool cache_hit = false;
  const std::shared_ptr<const SeedBlock> block =
      LookupBlock(request.seeds, &cache_hit);
  if (deadline != 0 && NowUs() > deadline) {
    if (obs::MetricsEnabled()) deadline_exceeded_->Increment();
    return Fail(Status::DeadlineExceeded("score query exceeded deadline"));
  }

  ScoreResult result;
  result.cache_hit = cache_hit;
  result.score = ScoreOne(*block, request.candidate,
                          ResolveAggregation(request.aggregation), start);
  return result;
}

Result<TopKResult> InfluenceService::TopK(const TopKRequest& request) const {
  const uint64_t start = NowUs();
  if (obs::MetricsEnabled()) topk_requests_->Increment();

  const Status k_ok = ValidateK(request.k, options_.max_k);
  if (!k_ok.ok()) return Fail(k_ok);
  const Status seeds_ok = ValidateSeeds(request.seeds);
  if (!seeds_ok.ok()) return Fail(seeds_ok);

  const uint64_t deadline = ResolveDeadline(request.deadline_us, start);
  const Aggregation aggregation = ResolveAggregation(request.aggregation);

  bool cache_hit = false;
  const std::shared_ptr<const SeedBlock> block =
      LookupBlock(request.seeds, &cache_hit);

  Result<TopKResult> result = ScanTopK(
      *block, request.k, aggregation,
      request.include_seeds ? std::vector<UserId>() : request.seeds, deadline,
      request.seeds.size());
  INF2VEC_RETURN_IF_ERROR(result.status());
  result.value().cache_hit = cache_hit;
  if (obs::MetricsEnabled()) topk_latency_us_->Record(NowUs() - start);
  return result;
}

Result<TopKResult> InfluenceService::ScanTopK(
    const SeedBlock& block, uint32_t k, Aggregation aggregation,
    std::vector<UserId> excluded, uint64_t deadline,
    uint64_t num_seeds) const {
  // Ids to skip, sorted: the scan visits candidates in ascending id
  // order, so one walking index replaces a per-candidate hash lookup.
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());
  size_t next_excluded = 0;

  // Cache-blocked scan: the gathered seed block stays hot while target
  // rows stream through, `scan_block` targets between deadline checks.
  // The table scores a whole block of candidates per call; a bounded
  // heap keeps the k current winners with the weakest on top. Under Ave
  // and Sum on an fp64 table the block call computes screen scores
  // instead, one centroid dot per candidate, and only a candidate whose
  // screen score could still beat the heap's k-th is scored exactly
  // (ServingTable::MakeScreen), so the heap sees the same exact scores.
  const uint32_t users = num_users();
  const std::optional<CentroidScreen> screen =
      table_.MakeScreen(block, aggregation);
  std::vector<double> scores(
      std::min<uint64_t>(options_.scan_block, users));
  std::vector<TopKEntry> heap;
  heap.reserve(k);
  TopKResult result;
  uint64_t rescored = 0;
  // The request's own span (a /topk handler's root) gets the scan
  // counts too: the access log keeps only root attributes.
  obs::TraceSpan* const request_span = obs::TraceSpan::Current();
  {
    obs::TraceSpan span("kernel_scan", "serve");
    span.SetAttr("seed_count", num_seeds);
    span.SetAttr("candidates", static_cast<uint64_t>(users));
    for (uint32_t begin = 0; begin < users; begin += options_.scan_block) {
      if (deadline != 0 && NowUs() > deadline) {
        if (obs::MetricsEnabled()) deadline_exceeded_->Increment();
        return Fail(Status::DeadlineExceeded(
            "top-k scan exceeded deadline after " +
            std::to_string(result.scanned) + " candidates"));
      }
      const uint32_t end =
          std::min<uint64_t>(users, uint64_t{begin} + options_.scan_block);
      if (screen.has_value()) {
        table_.ScreenRange(*screen, begin, end, scores.data());
      } else {
        table_.ScoreRange(block, aggregation, begin, end, scores.data());
      }
      for (uint32_t v = begin; v < end; ++v) {
        while (next_excluded < excluded.size() &&
               excluded[next_excluded] < v) {
          ++next_excluded;
        }
        if (next_excluded < excluded.size() && excluded[next_excluded] == v) {
          ++next_excluded;
          continue;
        }
        ++result.scanned;
        TopKEntry entry{v, scores[v - begin]};
        if (screen.has_value()) {
          if (heap.size() == k &&
              screen->Prunes(entry.score, heap.front().score)) {
            continue;
          }
          entry.score = table_.Score(block, v, aggregation);
          ++rescored;
        }
        if (heap.size() < k) {
          heap.push_back(entry);
          std::push_heap(heap.begin(), heap.end(), BetterThan);
        } else if (BetterThan(entry, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), BetterThan);
          heap.back() = entry;
          std::push_heap(heap.begin(), heap.end(), BetterThan);
        }
      }
    }
    // Server-side dots: one per candidate and scored seed without the
    // screen; one per candidate plus the rescored candidates' with it.
    const uint64_t seed_dots =
        aggregation == Aggregation::kLatest ? 1 : num_seeds;
    const uint64_t dots = screen.has_value() ? users + rescored * seed_dots
                                             : uint64_t{users} * seed_dots;
    for (obs::TraceSpan* annotated : {&span, request_span}) {
      if (annotated == nullptr) continue;
      annotated->SetAttr("screened", screen.has_value());
      annotated->SetAttr("rescored", rescored);
      annotated->SetAttr("dots", dots);
    }
  }
  if (obs::MetricsEnabled()) topk_rescored_->Increment(rescored);

  {
    obs::TraceSpan span("merge", "serve");
    std::sort(heap.begin(), heap.end(), BetterThan);
    result.entries = std::move(heap);
  }
  return result;
}

Status InfluenceService::ValidateBlock(const SeedBlock& block) const {
  if (block.num_seeds() == 0) {
    return Status::InvalidArgument(
        "seed block is empty: at least one activated influencer is required");
  }
  if (block.num_seeds() > options_.max_seeds) {
    return Status::InvalidArgument(
        "seed block too large: " + std::to_string(block.num_seeds()) +
        " > max " + std::to_string(options_.max_seeds));
  }
  return table_.CheckBlock(block);
}

Result<TopKResult> InfluenceService::TopKWithBlock(
    const SeedBlock& block, const BlockTopKRequest& request) const {
  const uint64_t start = NowUs();
  if (obs::MetricsEnabled()) topk_requests_->Increment();

  const Status k_ok = ValidateK(request.k, options_.max_k);
  if (!k_ok.ok()) return Fail(k_ok);
  const Status block_ok = ValidateBlock(block);
  if (!block_ok.ok()) return Fail(block_ok);

  const uint64_t deadline = ResolveDeadline(request.deadline_us, start);
  const Aggregation aggregation = ResolveAggregation(request.aggregation);
  Result<TopKResult> result =
      ScanTopK(block, request.k, aggregation, request.exclude, deadline,
               block.num_seeds());
  INF2VEC_RETURN_IF_ERROR(result.status());
  if (obs::MetricsEnabled()) topk_latency_us_->Record(NowUs() - start);
  return result;
}

Result<double> InfluenceService::ScoreWithBlock(
    const SeedBlock& block, UserId candidate,
    const std::optional<Aggregation>& aggregation) const {
  const uint64_t start = NowUs();
  if (obs::MetricsEnabled()) score_requests_->Increment();

  const Status candidate_ok = ValidateCandidate(candidate);
  if (!candidate_ok.ok()) return Fail(candidate_ok);
  const Status block_ok = ValidateBlock(block);
  if (!block_ok.ok()) return Fail(block_ok);
  return ScoreOne(block, candidate, ResolveAggregation(aggregation), start);
}

Result<BatchScoreResult> InfluenceService::ScoreBatch(
    const BatchScoreRequest& request) const {
  const uint64_t start = NowUs();
  if (obs::MetricsEnabled()) batch_requests_->Increment();

  if (request.items.empty()) {
    return Fail(Status::InvalidArgument("batch is empty"));
  }
  if (request.items.size() > options_.max_batch) {
    return Fail(Status::InvalidArgument(
        "batch too large: " + std::to_string(request.items.size()) +
        " > max " + std::to_string(options_.max_batch)));
  }
  // Validate everything up front so errors name the offending item and no
  // partial parallel work runs for a doomed request.
  for (size_t i = 0; i < request.items.size(); ++i) {
    const BatchItem& item = request.items[i];
    Status item_ok = ValidateCandidate(item.candidate);
    if (item_ok.ok()) item_ok = ValidateSeeds(item.seeds);
    if (!item_ok.ok()) {
      return Fail(Status(item_ok.code(), "batch item " + std::to_string(i) +
                                             ": " + item_ok.message()));
    }
  }

  const uint64_t deadline = ResolveDeadline(request.deadline_us, start);
  const Aggregation aggregation = ResolveAggregation(request.aggregation);

  BatchScoreResult result;
  result.scores.resize(request.items.size(), 0.0);
  std::atomic<uint64_t> hits{0};
  std::atomic<bool> expired{false};

  const auto score_range = [&](size_t begin, size_t end) {
    uint64_t local_hits = 0;
    for (size_t i = begin; i < end; ++i) {
      if ((i - begin) % 64 == 0 && deadline != 0 && NowUs() > deadline) {
        expired.store(true, std::memory_order_relaxed);
        break;
      }
      const BatchItem& item = request.items[i];
      bool cache_hit = false;
      const std::shared_ptr<const SeedBlock> block =
          cache_->Get(table_, item.seeds, &cache_hit);
      result.scores[i] = table_.Score(*block, item.candidate, aggregation);
      if (cache_hit) ++local_hits;
    }
    hits.fetch_add(local_hits, std::memory_order_relaxed);
  };

  if (batch_pool_ == nullptr) {
    score_range(0, request.items.size());
  } else {
    // The pool is not reentrant and posting is single-producer; serialize
    // concurrent batch callers on it.
    std::lock_guard<std::mutex> lock(*batch_mu_);
    batch_pool_->ParallelFor(
        0, request.items.size(),
        [&](uint32_t /*shard*/, size_t begin, size_t end) {
          score_range(begin, end);
        });
  }

  if (expired.load(std::memory_order_relaxed)) {
    if (obs::MetricsEnabled()) deadline_exceeded_->Increment();
    return Fail(Status::DeadlineExceeded("batch scoring exceeded deadline"));
  }
  result.cache_hits = hits.load(std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    batch_items_->Increment(request.items.size());
    cache_hits_->Increment(result.cache_hits);
    cache_misses_->Increment(request.items.size() - result.cache_hits);
    batch_latency_us_->Record(NowUs() - start);
  }
  return result;
}

obs::JsonValue InfluenceService::DescribeJson() const {
  obs::JsonValue json = obs::JsonValue::Object();
  json.Set("model_path", model_path_);
  json.Set("num_users", num_users());
  json.Set("dim", dim());
  json.Set("aggregation", AggregationName(default_aggregation_));
  json.Set("model", metadata().ToJson());

  obs::JsonValue serving = obs::JsonValue::Object();
  serving.Set("seed_cache_capacity", options_.seed_cache_capacity);
  serving.Set("default_deadline_us", options_.default_deadline_us);
  serving.Set("max_seeds", options_.max_seeds);
  serving.Set("max_k", options_.max_k);
  serving.Set("max_batch", options_.max_batch);
  serving.Set("num_threads",
              batch_pool_ == nullptr ? 1u : batch_pool_->num_threads());
  serving.Set("scan_block", options_.scan_block);
  serving.Set("quantize", QuantModeName(quant_mode()));
  serving.Set("kernel_isa", kernels::IsaName(kernels::ActiveIsa()));
  serving.Set(std::string(table_.name()) + "_bytes", table_.bytes());
  json.Set("serving", std::move(serving));

  obs::JsonValue cache = obs::JsonValue::Object();
  cache.Set("capacity", cache_->capacity());
  cache.Set("size", cache_->size());
  cache.Set("hits", cache_->hits());
  cache.Set("misses", cache_->misses());
  cache.Set("bytes", cache_->total_bytes());
  json.Set("seed_cache", std::move(cache));
  return json;
}

}  // namespace serve
}  // namespace inf2vec
