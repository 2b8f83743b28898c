#include "baselines/node2vec.h"

#include <algorithm>

#include "diffusion/random_walk.h"
#include "embedding/sgd_epochs.h"
#include "obs/metrics.h"
#include "obs/run_status.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace inf2vec {
namespace {

/// Same epoch-granularity counters as Inf2vecModel, under the baseline's
/// own prefix so one report can hold both.
void RecordNode2vecEpoch(uint64_t pairs) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("node2vec.epochs")->Increment();
  registry.GetCounter("node2vec.pairs_trained")->Increment(pairs);
}

}  // namespace

Result<Node2vecModel> Node2vecModel::Train(const SocialGraph& graph,
                                           const Node2vecOptions& options) {
  if (graph.num_users() == 0) {
    return Status::InvalidArgument("empty graph");
  }
  if (options.dim == 0 || options.walk_length < 2 || options.window == 0) {
    return Status::InvalidArgument("invalid node2vec options");
  }

  Rng rng(options.seed);
  obs::TraceSpan train_span("Node2vecModel::Train", "baseline");
  obs::RunStatus::Default().SetPhase("baseline:node2vec");

  // 1. Walk corpus: (center, context) skip-gram pairs within the window.
  std::vector<std::pair<UserId, UserId>> pairs;
  std::vector<uint64_t> context_freq(graph.num_users(), 0);
  std::vector<UserId> nodes(graph.num_users());
  for (UserId u = 0; u < graph.num_users(); ++u) nodes[u] = u;

  for (uint32_t r = 0; r < options.walks_per_node; ++r) {
    rng.Shuffle(nodes);
    for (UserId start : nodes) {
      const std::vector<UserId> walk =
          BiasedWalk(graph, start, options.walk_length, options.return_param,
                     options.inout_param, rng);
      for (size_t i = 0; i < walk.size(); ++i) {
        const size_t lo = i >= options.window ? i - options.window : 0;
        const size_t hi = std::min(walk.size(), i + options.window + 1);
        for (size_t j = lo; j < hi; ++j) {
          if (j == i || walk[j] == walk[i]) continue;
          pairs.push_back({walk[i], walk[j]});
          ++context_freq[walk[j]];
        }
      }
    }
  }
  if (pairs.empty()) {
    return Status::InvalidArgument(
        "node2vec produced no training pairs (graph has no usable walks)");
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Default()
        .GetCounter("node2vec.pairs")
        ->Increment(pairs.size());
  }

  // 2. Skip-gram with negative sampling, no bias terms (plain node2vec).
  auto store = std::make_unique<EmbeddingStore>(graph.num_users(),
                                                options.dim);
  store->InitPaperDefault(rng);
  Result<NegativeSampler> sampler = NegativeSampler::Create(
      options.negative_kind, graph.num_users(), context_freq);
  if (!sampler.ok()) return sampler.status();

  SgdOptions sgd;
  sgd.learning_rate = options.learning_rate;
  sgd.num_negatives = options.num_negatives;
  sgd.use_biases = false;

  // Serial on the master stream, or Hogwild with one RNG stream per
  // shard (same scheme as Inf2vecModel::TrainFromCorpus).
  const uint32_t num_threads =
      ThreadPool::ResolveThreadCount(options.num_threads);
  std::vector<Rng> shard_rngs;
  if (num_threads > 1) {
    shard_rngs.reserve(num_threads);
    for (uint32_t s = 0; s < num_threads; ++s) {
      shard_rngs.emplace_back(ThreadPool::ShardSeed(options.seed, s));
    }
  }
  SgdEpochSchedule schedule;
  schedule.end_epoch = options.epochs;
  schedule.after_epoch = [](const SgdEpochResult& result) {
    RecordNode2vecEpoch(result.pairs);
    return Status::OK();
  };
  INF2VEC_RETURN_IF_ERROR(RunSgdEpochs(store.get(), sampler.value(), sgd,
                                       pairs, rng, shard_rngs, schedule));
  return Node2vecModel(options, std::move(store));
}

}  // namespace inf2vec
