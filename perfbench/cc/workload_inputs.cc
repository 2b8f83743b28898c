#include "workload_inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.h"

namespace perfbench {

using inf2vec::ActionLog;
using inf2vec::Rng;
using inf2vec::UserId;

namespace {

// Independent streams derived from the one workload seed, so changing how
// one input is drawn never shifts another.
constexpr uint64_t kSplitStream = 0x5b1175eedULL;
constexpr uint64_t kTopKStream = 0x70b4ULL;
constexpr uint64_t kScoreStream = 0x5c0eULL;

}  // namespace

inf2vec::Result<inf2vec::synth::World> GenerateBenchWorld(uint64_t seed) {
  inf2vec::synth::WorldProfile profile =
      inf2vec::synth::WorldProfile::DiggLike();
  profile.num_users = kUsers;
  profile.num_items = kItems;
  Rng rng(seed);
  return inf2vec::synth::GenerateWorld(profile, rng);
}

inf2vec::LogSplit SplitBenchLog(const ActionLog& log, uint64_t seed) {
  Rng rng(seed ^ kSplitStream);
  return inf2vec::SplitLog(log, 0.8, 0.1, rng);
}

inf2vec::Inf2vecConfig BenchTrainConfig(uint64_t seed, uint32_t epochs) {
  inf2vec::Inf2vecConfig config;  // Paper defaults.
  config.epochs = epochs;
  config.seed = seed;
  config.num_threads = kTrainThreads;
  return config;
}

std::vector<std::vector<UserId>> TopKSeedSets(const ActionLog& log,
                                              uint64_t seed, size_t count) {
  Rng rng(seed ^ kTopKStream);
  const size_t num_episodes = log.num_episodes();
  // Zipf(1) popularity over a seeded ranking of the episodes.
  std::vector<size_t> ranking(num_episodes);
  std::iota(ranking.begin(), ranking.end(), size_t{0});
  rng.Shuffle(ranking);
  std::vector<double> cumulative(num_episodes);
  double total = 0.0;
  for (size_t r = 0; r < num_episodes; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative[r] = total;
  }
  // The prefix lengths' uniform variates follow a golden-ratio sequence
  // from a seeded start instead of independent draws. Every stretch of
  // requests then holds the log-uniform mix almost exactly, so the median
  // seed count of a phase's requests, and with it the median latency,
  // does not move with the sample.
  constexpr double kGoldenStep = 0.6180339887498949;
  double v = rng.UniformDouble();
  std::vector<std::vector<UserId>> sets;
  sets.reserve(count);
  while (sets.size() < count) {
    const double u = rng.UniformDouble() * total;
    const size_t rank = std::min<size_t>(
        num_episodes - 1,
        static_cast<size_t>(std::upper_bound(cumulative.begin(),
                                              cumulative.end(), u) -
                            cumulative.begin()));
    const auto& adoptions = log.episodes()[ranking[rank]].adoptions();
    const size_t max_len = std::max<size_t>(
        1, static_cast<size_t>(std::llround(0.05 * adoptions.size())));
    // Log-uniform on [1, max_len].
    v += kGoldenStep;
    if (v >= 1.0) v -= 1.0;
    const size_t len = std::min<size_t>(
        max_len,
        static_cast<size_t>(
            std::exp(v * std::log(static_cast<double>(max_len) + 1.0))));
    std::vector<UserId> seeds;
    seeds.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      seeds.push_back(adoptions[i].user);
    }
    sets.push_back(std::move(seeds));
  }
  return sets;
}

std::vector<inf2vec::ActivationCase> ScoreCases(
    const inf2vec::SocialGraph& graph, const ActionLog& log, uint64_t seed,
    size_t count) {
  std::vector<inf2vec::ActivationCase> all;
  for (const inf2vec::DiffusionEpisode& episode : log.episodes()) {
    std::vector<inf2vec::ActivationCase> cases =
        inf2vec::BuildActivationCases(graph, episode);
    all.insert(all.end(), std::make_move_iterator(cases.begin()),
               std::make_move_iterator(cases.end()));
  }
  Rng rng(seed ^ kScoreStream);
  std::vector<inf2vec::ActivationCase> picked;
  picked.reserve(count);
  for (size_t i = 0; i < count && !all.empty(); ++i) {
    picked.push_back(all[rng.UniformU64(all.size())]);
  }
  return picked;
}

}  // namespace perfbench
