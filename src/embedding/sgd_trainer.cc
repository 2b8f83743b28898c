#include "embedding/sgd_trainer.h"

#include <cmath>

#include "kernels/kernels.h"
#include "util/logging.h"
#include "util/sigmoid_table.h"
#include "util/thread_pool.h"

namespace inf2vec {

SgdTrainer::SgdTrainer(EmbeddingStore* store, const NegativeSampler* sampler,
                       const SgdOptions& options)
    : store_(store), sampler_(sampler), options_(options) {
  INF2VEC_CHECK(store_ != nullptr);
  INF2VEC_CHECK(sampler_ != nullptr);
  source_grad_.resize(store_->dim(), 0.0);
  INF2VEC_DASSERT_ALIGNED(source_grad_.data());
}

double SgdTrainer::SigmoidOf(double z) const {
  return options_.use_sigmoid_table ? GlobalSigmoidTable().Sigmoid(z)
                                    : SigmoidTable::Exact(z);
}

double SgdTrainer::TrainPair(UserId u, UserId v, Rng& rng,
                             bool want_objective) {
  sampler_->SampleMany(rng, u, v, options_.num_negatives, &negatives_);
  return TrainPair(u, v, negatives_, want_objective);
}

INF2VEC_NO_SANITIZE_THREAD
double SgdTrainer::TrainPair(UserId u, UserId v,
                             std::span<const UserId> negatives,
                             bool want_objective) {
  const uint32_t dim = store_->dim();
  const double lr = options_.learning_rate;

  // Accumulate dL/dS_u across the positive and all negatives, applying it
  // once at the end (Eq. 6 evaluates every term at the current S_u). Each
  // score z is computed once and feeds both the gradient coefficient and
  // (when requested) the objective term; skipping the objective keeps the
  // hot path free of std::log entirely.
  double objective = 0.0;
  std::fill(source_grad_.begin(), source_grad_.end(), 0.0);
  const std::span<double> s_u = store_->Source(u);
  double bias_u_grad = 0.0;

  {  // Positive term: coefficient (1 - sigma(z_v)).
    const double z = store_->Score(u, v);
    if (want_objective) objective += std::log(SigmoidTable::Exact(z));
    const double coeff = 1.0 - SigmoidOf(z);
    const std::span<double> t_v = store_->Target(v);
    kernels::GradStep(coeff, lr * coeff, s_u.data(), t_v.data(),
                      source_grad_.data(), dim);
    if (options_.use_biases) {
      bias_u_grad += coeff;
      store_->mutable_target_bias(v) += lr * coeff;
    }
  }

  for (UserId w : negatives) {  // Negative terms: coefficient -sigma(z_w).
    const double z = store_->Score(u, w);
    if (want_objective) objective += std::log(SigmoidTable::Exact(-z));
    const double coeff = -SigmoidOf(z);
    const std::span<double> t_w = store_->Target(w);
    kernels::GradStep(coeff, lr * coeff, s_u.data(), t_w.data(),
                      source_grad_.data(), dim);
    if (options_.use_biases) {
      bias_u_grad += coeff;
      store_->mutable_target_bias(w) += lr * coeff;
    }
  }

  kernels::Axpy(lr, source_grad_.data(), s_u.data(), dim);
  if (options_.use_biases) store_->mutable_source_bias(u) += lr * bias_u_grad;

  return objective;
}

double SgdTrainer::PairObjective(UserId u, UserId v,
                                 const std::vector<UserId>& negatives) const {
  double obj = std::log(SigmoidTable::Exact(store_->Score(u, v)));
  for (UserId w : negatives) {
    obj += std::log(SigmoidTable::Exact(-store_->Score(u, w)));
  }
  return obj;
}

}  // namespace inf2vec
