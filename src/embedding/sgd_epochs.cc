#include "embedding/sgd_epochs.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "obs/trace.h"
#include "util/prefetch.h"
#include "util/thread_pool.h"

namespace inf2vec {
namespace {

/// Prefetches what SgdTrainer::TrainPair(u, v, negatives) reads and
/// writes: S_u, T_v and every T_w, plus b_u, b~_v and every b~_w when
/// biases train. Computes addresses only; reads no parameter.
void PrefetchPair(EmbeddingStore* store, UserId u, UserId v,
                  const std::vector<UserId>& negatives, bool use_biases) {
  const size_t row_bytes = sizeof(double) * store->dim();
  PrefetchBytes(store->Source(u).data(), row_bytes);
  PrefetchBytes(store->Target(v).data(), row_bytes);
  for (UserId w : negatives) PrefetchBytes(store->Target(w).data(), row_bytes);
  if (!use_biases) return;
  PrefetchLine(&store->mutable_source_bias(u));
  PrefetchLine(&store->mutable_target_bias(v));
  for (UserId w : negatives) PrefetchLine(&store->mutable_target_bias(w));
}

/// Trains pairs[begin, end) in order with negatives drawn from `rng` one
/// pair ahead (see RunSgdEpochs); returns the pairs' objective sum.
double TrainRange(SgdTrainer& trainer, const NegativeSampler& sampler,
                  EmbeddingStore* store,
                  const std::vector<std::pair<UserId, UserId>>& pairs,
                  size_t begin, size_t end, Rng& rng, bool want_objective) {
  const SgdOptions& options = trainer.options();
  std::vector<UserId> current;
  std::vector<UserId> next;  // The look-ahead slot: pair i+1's negatives.
  if (begin < end) {
    sampler.SampleMany(rng, pairs[begin].first, pairs[begin].second,
                       options.num_negatives, &next);
  }
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) {
    current.swap(next);
    if (i + 1 < end) {
      const auto [u, v] = pairs[i + 1];
      sampler.SampleMany(rng, u, v, options.num_negatives, &next);
      PrefetchPair(store, u, v, next, options.use_biases);
    }
    sum += trainer.TrainPair(pairs[i].first, pairs[i].second, current,
                             want_objective);
  }
  return sum;
}

}  // namespace

Status RunSgdEpochs(EmbeddingStore* store, const NegativeSampler& sampler,
                    const SgdOptions& options,
                    std::vector<std::pair<UserId, UserId>>& pairs, Rng& rng,
                    std::vector<Rng>& shard_rngs,
                    const SgdEpochSchedule& schedule) {
  // One trainer (scratch buffers) and objective slot per shard. The serial
  // path is shard 0, run on this thread over the master stream.
  const bool hogwild = !shard_rngs.empty();
  const uint32_t num_shards =
      hogwild ? static_cast<uint32_t>(shard_rngs.size()) : 1;
  std::unique_ptr<ThreadPool> pool;
  if (hogwild) pool = std::make_unique<ThreadPool>(num_shards);
  std::vector<SgdTrainer> trainers;
  trainers.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    trainers.emplace_back(store, &sampler, options);
  }
  std::vector<double> shard_objective(num_shards, 0.0);
  const auto train_shard = [&](uint32_t shard, size_t begin, size_t end) {
    shard_objective[shard] =
        TrainRange(trainers[shard], sampler, store, pairs, begin, end,
                   hogwild ? shard_rngs[shard] : rng, schedule.want_objective);
  };

  for (uint32_t epoch = schedule.begin_epoch; epoch < schedule.end_epoch;
       ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    {
      obs::TraceSpan span("sgd.epoch", "train");
      if (schedule.shuffle_pairs) {
        obs::TraceSpan shuffle_span("sgd.shuffle", "train");
        rng.Shuffle(pairs);
      }
      // A range shorter than the pool leaves some shards unclaimed.
      std::fill(shard_objective.begin(), shard_objective.end(), 0.0);
      if (hogwild) {
        pool->ParallelFor(0, pairs.size(), train_shard);
      } else {
        train_shard(0, 0, pairs.size());
      }
    }
    SgdEpochResult result;
    result.epoch = epoch;
    result.pairs = pairs.size();
    result.objective_sum = std::accumulate(shard_objective.begin(),
                                           shard_objective.end(), 0.0);
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_start)
                         .count();
    if (schedule.after_epoch) {
      INF2VEC_RETURN_IF_ERROR(schedule.after_epoch(result));
    }
  }
  return Status::OK();
}

}  // namespace inf2vec
