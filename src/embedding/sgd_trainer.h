#ifndef INF2VEC_EMBEDDING_SGD_TRAINER_H_
#define INF2VEC_EMBEDDING_SGD_TRAINER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "embedding/embedding_store.h"
#include "embedding/negative_sampler.h"
#include "kernels/aligned.h"
#include "util/rng.h"

namespace inf2vec {

/// Hyper-parameters of the skip-gram-with-negative-sampling SGD step
/// (Eq. 4-6 of the paper). Defaults follow Section V-A-2.
struct SgdOptions {
  /// Learning rate gamma; paper default 0.005.
  double learning_rate = 0.005;
  /// |N|, the number of negative instances per positive; paper: 5-10.
  uint32_t num_negatives = 5;
  /// Whether bias terms b_u / b~_v participate (Inf2vec: yes; the plain
  /// Node2vec baseline trains without biases).
  bool use_biases = true;
  /// Use the fast lookup-table sigmoid; exact sigmoid when false (tests).
  bool use_sigmoid_table = true;
};

/// Applies single (u, v) skip-gram updates against an EmbeddingStore.
/// Stateless besides the option set and per-instance scratch buffers;
/// safe to share across corpora that target the same store.
///
/// Threading: a single SgdTrainer is NOT thread-safe (it owns scratch
/// buffers), but multiple SgdTrainer instances MAY train against the same
/// EmbeddingStore concurrently without locks — that is the Hogwild
/// execution model the parallel training pipeline uses. The resulting
/// races on store parameters are intentional and benign for sparse
/// updates; see EmbeddingStore's concurrency contract and
/// docs/ALGORITHMS.md ("Parallel training").
class SgdTrainer {
 public:
  SgdTrainer(EmbeddingStore* store, const NegativeSampler* sampler,
             const SgdOptions& options);

  /// One positive pair (u influences v): updates S_u, T_v, b_u, b~_v, then
  /// draws options.num_negatives negatives w and updates S_u, T_w, b_u,
  /// b~_w per Eq. 6. Returns the negative-sampling objective value of the
  /// pair (log sigma(z_v) + sum log sigma(-z_w)), a convergence signal the
  /// caller may ignore — pass want_objective = false to skip its log()
  /// evaluations entirely (returns 0.0; the updates are identical either
  /// way). Each term's z is evaluated just before that term's update, so
  /// when a negative is drawn more than once in the same call the later
  /// objective term sees the earlier micro-update.
  double TrainPair(UserId u, UserId v, Rng& rng, bool want_objective = true);

  /// The Eq. 6 step of TrainPair with the negatives already drawn (the
  /// other overload is SampleMany followed by this one). RunSgdEpochs
  /// draws a pair's negatives one pair early and trains through here.
  double TrainPair(UserId u, UserId v, std::span<const UserId> negatives,
                   bool want_objective);

  /// Objective of Eq. 4 for a pair without updating (used by tests and
  /// convergence monitors); negatives supplied by the caller.
  double PairObjective(UserId u, UserId v,
                       const std::vector<UserId>& negatives) const;

  const SgdOptions& options() const { return options_; }
  void set_learning_rate(double lr) { options_.learning_rate = lr; }

 private:
  double SigmoidOf(double z) const;

  EmbeddingStore* store_;
  const NegativeSampler* sampler_;
  SgdOptions options_;
  // Scratch buffers reused across TrainPair calls to avoid reallocations in
  // the hot loop. The gradient accumulator is 64-byte aligned to match the
  // store rows the SIMD kernels stream alongside it.
  std::vector<UserId> negatives_;
  kernels::AlignedVector<double> source_grad_;
};

}  // namespace inf2vec

#endif  // INF2VEC_EMBEDDING_SGD_TRAINER_H_
