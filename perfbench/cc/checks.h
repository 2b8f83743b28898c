// The benchmark's answer checks. Each returns OK or a Status naming the
// first mismatch; the benchmark exits non-zero when any check fails.
// checks_test.cc shows each one rejecting a perturbed answer.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <vector>

#include "core/aggregation.h"
#include "embedding/embedding_store.h"
#include "embedding/quantized_store.h"
#include "serve/influence_service.h"
#include "util/status.h"

namespace perfbench {

/// A /topk answer must equal the brute-force ranking built with
/// EmbeddingPredictor over every candidate: same ids, same order,
/// bit-equal scores, ties by ascending id, seeds excluded.
inf2vec::Status CheckTopKAnswer(const inf2vec::EmbeddingStore& store,
                                inf2vec::Aggregation aggregation,
                                const std::vector<inf2vec::UserId>& seeds,
                                uint32_t k,
                                const std::vector<inf2vec::serve::TopKEntry>&
                                    answer);

/// An int8 /score answer must equal, bit for bit, F over
/// QuantizedEmbeddingStore::Score(seed, candidate) for each seed in order.
inf2vec::Status CheckQuantizedScore(
    const inf2vec::QuantizedEmbeddingStore& store,
    inf2vec::Aggregation aggregation, inf2vec::UserId candidate,
    const std::vector<inf2vec::UserId>& seeds, double answer);

/// A /reloadz that returned generation `generation` at `returned_ns`.
struct SwapRecord {
  uint64_t returned_ns = 0;
  uint64_t generation = 0;
};

/// A successful answer: when its request was sent and which generation
/// answered it.
struct GenerationRecord {
  uint64_t sent_ns = 0;
  uint64_t generation = 0;
};

/// No answer to a request sent after a swap returned may carry a
/// generation older than the one that swap returned.
inf2vec::Status CheckGenerations(const std::vector<SwapRecord>& swaps,
                                 const std::vector<GenerationRecord>& answers);

/// The saved artifact must reload bit-identically: shape, every S/T row
/// element and every bias.
inf2vec::Status CheckReloadIdentical(const inf2vec::EmbeddingStore& trained,
                                     const inf2vec::EmbeddingStore& reloaded);

/// train_auc must not fall under the recorded floor.
inf2vec::Status CheckAucFloor(double auc, double floor);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
