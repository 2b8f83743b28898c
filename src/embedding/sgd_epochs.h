#ifndef INF2VEC_EMBEDDING_SGD_EPOCHS_H_
#define INF2VEC_EMBEDDING_SGD_EPOCHS_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "embedding/embedding_store.h"
#include "embedding/negative_sampler.h"
#include "embedding/sgd_trainer.h"
#include "util/rng.h"
#include "util/status.h"

namespace inf2vec {

/// What RunSgdEpochs reports after each epoch.
struct SgdEpochResult {
  uint32_t epoch = 0;          // 0-based index of the epoch just trained.
  uint64_t pairs = 0;          // Pairs trained in it.
  double objective_sum = 0.0;  // Sum of pair objectives; 0 unless wanted.
  double seconds = 0.0;        // Wall time of the shuffle plus the SGD.
};

/// Which epochs to run, and what to do after each one.
struct SgdEpochSchedule {
  uint32_t begin_epoch = 0;
  uint32_t end_epoch = 0;  // Exclusive.
  /// Shuffle the pair vector on the master RNG before each epoch.
  bool shuffle_pairs = true;
  /// Accumulate the per-pair objective (costs one log() per term).
  bool want_objective = false;
  /// Runs on the calling thread after each epoch, with every worker
  /// quiescent. A non-OK status stops training and is returned.
  std::function<Status(const SgdEpochResult&)> after_epoch;
};

/// The skip-gram SGD epoch loop shared by Inf2vec (fresh and resumed
/// runs) and the Node2vec baseline.
///
/// Serial when `shard_rngs` is empty: the master `rng` shuffles and draws
/// every negative, in pair order. Otherwise Hogwild over
/// shard_rngs.size() workers: `rng` shuffles, ThreadPool::ParallelFor
/// splits the pairs into contiguous ranges, and worker s draws its
/// range's negatives from shard_rngs[s] while every worker updates the
/// shared store without locks.
///
/// Within a range, pair i+1's negatives are drawn before pair i trains,
/// and pair i+1's S_u, T_v and T_w rows and bias slots are prefetched so
/// they arrive while pair i computes. SgdTrainer::TrainPair uses the RNG
/// only for those draws, so each stream sees the same draws in the same
/// order as a loop of TrainPair(u, v, rng): the serial path stays
/// bit-identical to it, and no stream ever draws past its range, so the
/// RNG states at each epoch boundary (what a checkpoint stores) are
/// unchanged too.
///
/// Mutates `pairs` (shuffle), `rng`, `shard_rngs` and the store in place.
Status RunSgdEpochs(EmbeddingStore* store, const NegativeSampler& sampler,
                    const SgdOptions& options,
                    std::vector<std::pair<UserId, UserId>>& pairs, Rng& rng,
                    std::vector<Rng>& shard_rngs,
                    const SgdEpochSchedule& schedule);

}  // namespace inf2vec

#endif  // INF2VEC_EMBEDDING_SGD_EPOCHS_H_
