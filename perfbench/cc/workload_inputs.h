// Workload inputs, all a pure function of the workload seed: the Digg-like
// world, its 80/10/10 split, the /topk seed sets and the /score cases.
// Only `prepare` calls these; the system under test sees the files they
// produce.
#ifndef PERFBENCH_WORKLOAD_INPUTS_H_
#define PERFBENCH_WORKLOAD_INPUTS_H_

#include <cstdint>
#include <vector>

#include "action/action_log.h"
#include "core/inf2vec_model.h"
#include "eval/activation_task.h"
#include "graph/social_graph.h"
#include "synth/world_generator.h"
#include "util/status.h"

namespace perfbench {

/// The paper's Digg user count and this benchmark's item count.
inline constexpr uint32_t kUsers = 68000;
inline constexpr uint32_t kItems = 80;
/// Hogwild workers for corpus build and SGD (nproc on the reference box).
inline constexpr uint32_t kTrainThreads = 4;
/// /topk answer size.
inline constexpr uint32_t kTopK = 10;

inf2vec::Result<inf2vec::synth::World> GenerateBenchWorld(uint64_t seed);

/// The paper's 80/10/10 episode split, seeded from the workload seed.
inf2vec::LogSplit SplitBenchLog(const inf2vec::ActionLog& log, uint64_t seed);

/// Algorithm 2 at the paper's defaults (K 50, L 50, alpha 0.1, |N| 5,
/// gamma 0.005) on kTrainThreads Hogwild workers.
inf2vec::Inf2vecConfig BenchTrainConfig(uint64_t seed, uint32_t epochs);

/// Diffusion-prediction seed sets: an episode drawn by Zipf popularity,
/// then its first adopters in adoption order, the prefix length
/// log-uniform from 1 to 5% of the episode (its variates a seeded
/// golden-ratio sequence).
std::vector<std::vector<inf2vec::UserId>> TopKSeedSets(
    const inf2vec::ActionLog& log, uint64_t seed, size_t count);

/// Activation-prediction cases (positives and negatives) of every episode,
/// in a seeded random order.
std::vector<inf2vec::ActivationCase> ScoreCases(
    const inf2vec::SocialGraph& graph, const inf2vec::ActionLog& log,
    uint64_t seed, size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_INPUTS_H_
