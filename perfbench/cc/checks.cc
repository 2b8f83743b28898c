#include "checks.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/embedding_predictor.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {

using inf2vec::Status;
using inf2vec::StrFormat;
using inf2vec::UserId;

Status CheckTopKAnswer(const inf2vec::EmbeddingStore& store,
                       inf2vec::Aggregation aggregation,
                       const std::vector<UserId>& seeds, uint32_t k,
                       const std::vector<inf2vec::serve::TopKEntry>& answer) {
  const inf2vec::EmbeddingPredictor predictor("brute-force", &store,
                                              aggregation);
  inf2vec::Rng unused(0);
  const std::vector<double> scores = predictor.ScoreDiffusion(seeds, unused);
  std::vector<UserId> sorted_seeds = seeds;
  std::sort(sorted_seeds.begin(), sorted_seeds.end());
  std::vector<inf2vec::serve::TopKEntry> expected;
  expected.reserve(scores.size());
  for (UserId v = 0; v < scores.size(); ++v) {
    if (std::binary_search(sorted_seeds.begin(), sorted_seeds.end(), v)) {
      continue;
    }
    expected.push_back({v, scores[v]});
  }
  const auto better = [](const inf2vec::serve::TopKEntry& a,
                         const inf2vec::serve::TopKEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.user < b.user;
  };
  const size_t n = std::min<size_t>(k, expected.size());
  std::partial_sort(expected.begin(), expected.begin() + n, expected.end(),
                    better);
  if (answer.size() != n) {
    return Status::Internal(StrFormat("topk: %zu entries, expected %zu",
                                      answer.size(), n));
  }
  for (size_t i = 0; i < n; ++i) {
    if (answer[i].user != expected[i].user ||
        std::memcmp(&answer[i].score, &expected[i].score, sizeof(double)) !=
            0) {
      return Status::Internal(StrFormat(
          "topk rank %zu: got user %u score %.17g, expected user %u score "
          "%.17g",
          i, answer[i].user, answer[i].score, expected[i].user,
          expected[i].score));
    }
  }
  return Status::OK();
}

Status CheckQuantizedScore(const inf2vec::QuantizedEmbeddingStore& store,
                           inf2vec::Aggregation aggregation, UserId candidate,
                           const std::vector<UserId>& seeds, double answer) {
  if (seeds.empty()) return Status::Internal("score: empty seed set");
  std::vector<double> terms;
  terms.reserve(seeds.size());
  for (UserId u : seeds) terms.push_back(store.Score(u, candidate));
  const double expected = inf2vec::Aggregate(aggregation, terms);
  if (std::memcmp(&answer, &expected, sizeof(double)) != 0) {
    return Status::Internal(StrFormat(
        "score candidate %u: got %.17g, expected %.17g", candidate, answer,
        expected));
  }
  return Status::OK();
}

Status CheckGenerations(const std::vector<SwapRecord>& swaps,
                        const std::vector<GenerationRecord>& answers) {
  for (const GenerationRecord& answer : answers) {
    for (const SwapRecord& swap : swaps) {
      if (answer.sent_ns > swap.returned_ns &&
          answer.generation < swap.generation) {
        return Status::Internal(StrFormat(
            "generation %llu answered a request sent %.3f ms after a swap "
            "returned generation %llu",
            static_cast<unsigned long long>(answer.generation),
            static_cast<double>(answer.sent_ns - swap.returned_ns) * 1e-6,
            static_cast<unsigned long long>(swap.generation)));
      }
    }
  }
  return Status::OK();
}

Status CheckReloadIdentical(const inf2vec::EmbeddingStore& trained,
                            const inf2vec::EmbeddingStore& reloaded) {
  if (trained.num_users() != reloaded.num_users() ||
      trained.dim() != reloaded.dim()) {
    return Status::Internal("reloaded artifact has another shape");
  }
  const size_t row_bytes = sizeof(double) * trained.dim();
  for (UserId u = 0; u < trained.num_users(); ++u) {
    const double sb = trained.source_bias(u);
    const double tb = trained.target_bias(u);
    const double rsb = reloaded.source_bias(u);
    const double rtb = reloaded.target_bias(u);
    if (std::memcmp(trained.Source(u).data(), reloaded.Source(u).data(),
                    row_bytes) != 0 ||
        std::memcmp(trained.Target(u).data(), reloaded.Target(u).data(),
                    row_bytes) != 0 ||
        std::memcmp(&sb, &rsb, sizeof(double)) != 0 ||
        std::memcmp(&tb, &rtb, sizeof(double)) != 0) {
      return Status::Internal(
          StrFormat("reloaded artifact differs at user %u", u));
    }
  }
  return Status::OK();
}

Status CheckAucFloor(double auc, double floor) {
  if (!(auc >= floor)) {
    return Status::Internal(
        StrFormat("train_auc %.6f is under the floor %.6f", auc, floor));
  }
  return Status::OK();
}

}  // namespace perfbench
