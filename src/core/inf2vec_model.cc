#include "core/inf2vec_model.h"

#include <chrono>

#include "diffusion/propagation_network.h"
#include "embedding/sgd_epochs.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/run_status.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace inf2vec {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Corpus-level tallies, recorded once per build (deterministic counts:
/// identical for serial and pooled builds of the same corpus).
void RecordCorpusMetrics(const InfluenceCorpus& corpus,
                         size_t num_episodes) {
  // Corpus buffers dominate training-side heap after the embedding table;
  // absolute Set (not Add) so a rebuilt corpus re-states rather than
  // double-counts. The corpus lives to the end of the run, so nothing
  // frees the figure — that is the truth of the training process.
  obs::MemoryRegistry::Default()
      .GetGauge("train.corpus")
      ->Set(corpus.pairs.capacity() * sizeof(corpus.pairs[0]) +
            corpus.target_frequencies.capacity() *
                sizeof(corpus.target_frequencies[0]));
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("corpus.episodes")->Increment(num_episodes);
  registry.GetCounter("corpus.tuples")->Increment(corpus.num_tuples);
  registry.GetCounter("corpus.pairs")->Increment(corpus.pairs.size());
}

/// Per-epoch bookkeeping shared by the serial and Hogwild paths: metric
/// counters (epoch-granularity, deterministic across thread counts),
/// objective recording, and the user epoch callback. Runs on the training
/// thread outside the hot pair loop.
void FinishEpoch(const Inf2vecConfig& config, uint32_t epoch, uint64_t pairs,
                 double objective_sum, bool have_objective, double seconds,
                 std::vector<double>* epoch_objective) {
  const double mean_objective =
      pairs == 0 ? 0.0 : objective_sum / static_cast<double>(pairs);
  if (epoch_objective != nullptr) epoch_objective->push_back(mean_objective);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetCounter("sgd.epochs")->Increment();
    registry.GetCounter("sgd.pairs_trained")->Increment(pairs);
    registry.GetGauge("sgd.learning_rate")->Set(config.sgd.learning_rate);
    if (have_objective) {
      registry.GetGauge("sgd.objective")->Set(mean_objective);
    }
  }
  const double pairs_per_second =
      seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0;
  // Live /statusz progress: epoch granularity, one uncontended lock.
  obs::RunStatus::Default().UpdateEpoch(epoch, config.epochs, mean_objective,
                                        pairs_per_second, seconds);
  if (config.epoch_callback) {
    EpochStats stats;
    stats.epoch = epoch;
    stats.total_epochs = config.epochs;
    stats.objective = mean_objective;
    stats.learning_rate = config.sgd.learning_rate;
    stats.pairs = pairs;
    stats.seconds = seconds;
    stats.pairs_per_second = pairs_per_second;
    config.epoch_callback(stats);
  }
}

/// Appends one episode's Algorithm-1 output to a corpus fragment.
void AccumulateEpisode(const SocialGraph& graph,
                       const DiffusionEpisode& episode,
                       const ContextOptions& options, uint32_t num_users,
                       Rng& rng, InfluenceCorpus* corpus) {
  const PropagationNetwork network(graph, episode);
  for (const InfluenceContext& ctx :
       GenerateEpisodeContexts(network, options, rng)) {
    ++corpus->num_tuples;
    for (UserId v : ctx.context) {
      corpus->pairs.push_back({ctx.user, v});
      if (v < num_users) ++corpus->target_frequencies[v];
    }
  }
}

/// Serial reference build over an externally owned RNG stream (the old
/// Rng& overload's body; the options path seeds a fresh stream).
InfluenceCorpus BuildCorpusSerial(const SocialGraph& graph,
                                  const ActionLog& log,
                                  const ContextOptions& options,
                                  uint32_t num_users, Rng& rng) {
  obs::TraceSpan span("BuildInfluenceCorpus", "corpus");
  InfluenceCorpus corpus;
  corpus.target_frequencies.assign(num_users, 0);
  for (const DiffusionEpisode& episode : log.episodes()) {
    AccumulateEpisode(graph, episode, options, num_users, rng, &corpus);
  }
  RecordCorpusMetrics(corpus, log.episodes().size());
  return corpus;
}

InfluenceCorpus BuildCorpusPooled(const SocialGraph& graph,
                                  const ActionLog& log,
                                  const ContextOptions& options,
                                  uint32_t num_users, uint64_t seed,
                                  ThreadPool& pool) {
  obs::TraceSpan span("BuildInfluenceCorpus", "corpus");
  const std::vector<DiffusionEpisode>& episodes = log.episodes();
  std::vector<InfluenceCorpus> fragments(pool.num_threads());
  pool.ParallelFor(0, episodes.size(),
                   [&](uint32_t shard, size_t begin, size_t end) {
                     Rng rng(ThreadPool::ShardSeed(seed, shard));
                     InfluenceCorpus& fragment = fragments[shard];
                     fragment.target_frequencies.assign(num_users, 0);
                     for (size_t i = begin; i < end; ++i) {
                       AccumulateEpisode(graph, episodes[i], options,
                                         num_users, rng, &fragment);
                     }
                   });

  // Deterministic merge: shard s covers a contiguous episode range below
  // shard s+1's, so fragment order IS episode order.
  InfluenceCorpus corpus;
  corpus.target_frequencies.assign(num_users, 0);
  size_t total_pairs = 0;
  for (const InfluenceCorpus& fragment : fragments) {
    total_pairs += fragment.pairs.size();
  }
  corpus.pairs.reserve(total_pairs);
  for (const InfluenceCorpus& fragment : fragments) {
    corpus.pairs.insert(corpus.pairs.end(), fragment.pairs.begin(),
                        fragment.pairs.end());
    corpus.num_tuples += fragment.num_tuples;
    if (fragment.target_frequencies.empty()) continue;  // Unclaimed shard.
    for (uint32_t u = 0; u < num_users; ++u) {
      corpus.target_frequencies[u] += fragment.target_frequencies[u];
    }
  }
  RecordCorpusMetrics(corpus, episodes.size());
  return corpus;
}

/// Builds the checkpoint view and invokes the configured callback (no-op
/// without one). Runs on the training thread between epochs, so the
/// pointed-to state is quiescent for the duration of the call.
Status MaybeCheckpoint(const Inf2vecConfig& config, uint32_t epochs_completed,
                       const EmbeddingStore* store,
                       const std::vector<std::pair<UserId, UserId>>* pairs,
                       const std::vector<uint64_t>* target_frequencies,
                       const Rng& rng, const std::vector<Rng>& shard_rngs) {
  if (!config.checkpoint_callback) return Status::OK();
  TrainCheckpointView view;
  view.epochs_completed = epochs_completed;
  view.total_epochs = config.epochs;
  view.num_users = store->num_users();
  view.store = store;
  view.pairs = pairs;
  view.target_frequencies = target_frequencies;
  view.master_rng = rng.state();
  view.shard_rngs.reserve(shard_rngs.size());
  for (const Rng& shard : shard_rngs) view.shard_rngs.push_back(shard.state());
  return config.checkpoint_callback(view);
}

/// The SGD epochs shared by TrainFromCorpus (start_epoch = 0) and
/// ResumeFromState: the shared RunSgdEpochs loop, with the epoch bookkeeping
/// and the checkpoint hook after each epoch. Serial when `shard_rngs` is
/// empty, Hogwild over shard_rngs.size() workers otherwise. Mutates
/// `pairs` (per-epoch shuffle), `rng`, `shard_rngs` and the store in
/// place.
Status TrainInf2vecEpochs(const Inf2vecConfig& config, EmbeddingStore* store,
                          const NegativeSampler& sampler,
                          std::vector<std::pair<UserId, UserId>>& pairs,
                          const std::vector<uint64_t>& target_frequencies,
                          Rng& rng, std::vector<Rng>& shard_rngs,
                          uint32_t start_epoch,
                          std::vector<double>* epoch_objective) {
  const bool want_objective =
      epoch_objective != nullptr || static_cast<bool>(config.epoch_callback);
  SgdEpochSchedule schedule;
  schedule.begin_epoch = start_epoch;
  schedule.end_epoch = config.epochs;
  schedule.shuffle_pairs = config.shuffle_pairs;
  schedule.want_objective = want_objective;
  schedule.after_epoch = [&](const SgdEpochResult& result) {
    FinishEpoch(config, result.epoch, result.pairs, result.objective_sum,
                want_objective, result.seconds, epoch_objective);
    return MaybeCheckpoint(config, result.epoch + 1, store, &pairs,
                           &target_frequencies, rng, shard_rngs);
  };
  return RunSgdEpochs(store, sampler, config.sgd, pairs, rng, shard_rngs,
                      schedule);
}

}  // namespace

InfluenceCorpus BuildInfluenceCorpus(const SocialGraph& graph,
                                     const ActionLog& log,
                                     const ContextOptions& options,
                                     uint32_t num_users,
                                     const CorpusBuildOptions& build) {
  if (build.pool == nullptr) {
    Rng rng(build.seed);
    return BuildCorpusSerial(graph, log, options, num_users, rng);
  }
  return BuildCorpusPooled(graph, log, options, num_users, build.seed,
                           *build.pool);
}

Result<Inf2vecModel> Inf2vecModel::TrainFromCorpus(
    const InfluenceCorpus& corpus, uint32_t num_users,
    const Inf2vecConfig& config, std::vector<double>* epoch_objective) {
  if (corpus.pairs.empty()) {
    return Status::InvalidArgument(
        "empty influence corpus: no influence pairs in the training log");
  }
  if (num_users == 0) {
    return Status::InvalidArgument("num_users must be positive");
  }

  Rng rng(config.seed);
  auto store = std::make_unique<EmbeddingStore>(num_users, config.dim);
  store->InitPaperDefault(rng);

  Result<NegativeSampler> sampler = NegativeSampler::Create(
      config.negative_kind, num_users, corpus.target_frequencies);
  if (!sampler.ok()) return sampler.status();

  std::vector<std::pair<UserId, UserId>> pairs = corpus.pairs;
  if (epoch_objective != nullptr) epoch_objective->clear();

  const uint32_t num_threads =
      ThreadPool::ResolveThreadCount(config.num_threads);
  obs::RunStatus::Default().SetPhase("sgd");
  obs::RunStatus::Default().SetThreads(num_threads);
  std::vector<Rng> shard_rngs;
  if (num_threads > 1) {
    shard_rngs.reserve(num_threads);
    for (uint32_t s = 0; s < num_threads; ++s) {
      shard_rngs.emplace_back(ThreadPool::ShardSeed(config.seed, s));
    }
  }
  INF2VEC_RETURN_IF_ERROR(TrainInf2vecEpochs(
      config, store.get(), sampler.value(), pairs, corpus.target_frequencies,
      rng, shard_rngs, /*start_epoch=*/0, epoch_objective));
  return Inf2vecModel(config, std::move(store));
}

Result<Inf2vecModel> Inf2vecModel::ResumeFromState(
    TrainResumeState state, const Inf2vecConfig& config,
    std::vector<double>* epoch_objective) {
  if (state.corpus.pairs.empty()) {
    return Status::InvalidArgument("resume state has no training pairs");
  }
  const uint32_t num_users = state.store.num_users();
  if (num_users == 0) {
    return Status::InvalidArgument(
        "resume state has an empty embedding store");
  }
  if (state.store.dim() != config.dim) {
    return Status::FailedPrecondition(
        "checkpointed dim " + std::to_string(state.store.dim()) +
        " != config.dim " + std::to_string(config.dim));
  }
  if (state.corpus.target_frequencies.size() != num_users) {
    return Status::InvalidArgument(
        "resume state target_frequencies covers " +
        std::to_string(state.corpus.target_frequencies.size()) +
        " users, embedding store has " + std::to_string(num_users));
  }

  auto store = std::make_unique<EmbeddingStore>(std::move(state.store));
  if (epoch_objective != nullptr) epoch_objective->clear();
  if (state.epochs_completed >= config.epochs) {
    // The checkpoint already covers every requested epoch (e.g. resuming a
    // finished run without raising --epochs): nothing left to train.
    return Inf2vecModel(config, std::move(store));
  }

  Result<NegativeSampler> sampler = NegativeSampler::Create(
      config.negative_kind, num_users, state.corpus.target_frequencies);
  if (!sampler.ok()) return sampler.status();

  const uint32_t num_threads =
      ThreadPool::ResolveThreadCount(config.num_threads);
  obs::RunStatus::Default().SetPhase("sgd");
  obs::RunStatus::Default().SetThreads(num_threads);
  std::vector<Rng> shard_rngs;
  if (num_threads > 1) {
    if (state.shard_rngs.size() != num_threads) {
      return Status::FailedPrecondition(
          "checkpoint carries " + std::to_string(state.shard_rngs.size()) +
          " shard RNG streams but config.num_threads resolves to " +
          std::to_string(num_threads) +
          "; resume with the checkpointed thread count");
    }
    shard_rngs.reserve(num_threads);
    for (const RngState& s : state.shard_rngs) {
      shard_rngs.push_back(Rng::FromState(s));
    }
  } else if (!state.shard_rngs.empty()) {
    return Status::FailedPrecondition(
        "checkpoint came from a Hogwild run (" +
        std::to_string(state.shard_rngs.size()) +
        " shard RNG streams); resume with the same num_threads");
  }

  Rng rng = Rng::FromState(state.master_rng);
  INF2VEC_RETURN_IF_ERROR(TrainInf2vecEpochs(
      config, store.get(), sampler.value(), state.corpus.pairs,
      state.corpus.target_frequencies, rng, shard_rngs,
      state.epochs_completed, epoch_objective));
  return Inf2vecModel(config, std::move(store));
}

Result<Inf2vecModel> Inf2vecModel::Train(const SocialGraph& graph,
                                         const ActionLog& log,
                                         const Inf2vecConfig& config) {
  if (log.num_episodes() == 0) {
    return Status::InvalidArgument("action log has no episodes");
  }
  const uint32_t num_threads =
      ThreadPool::ResolveThreadCount(config.num_threads);
  obs::RunStatus::Default().SetPhase("corpus");
  obs::RunStatus::Default().SetThreads(num_threads);
  const auto corpus_start = std::chrono::steady_clock::now();
  InfluenceCorpus corpus;
  CorpusBuildOptions build;
  build.seed = config.seed;
  if (num_threads <= 1) {
    corpus = BuildInfluenceCorpus(graph, log, config.context,
                                  graph.num_users(), build);
  } else {
    ThreadPool pool(num_threads);
    build.pool = &pool;
    corpus = BuildInfluenceCorpus(graph, log, config.context,
                                  graph.num_users(), build);
  }
  const double corpus_seconds = SecondsSince(corpus_start);
  // Offset the SGD stream from the corpus stream so the two phases do not
  // share random state across configs with equal seeds.
  Inf2vecConfig sgd_config = config;
  sgd_config.seed = config.seed ^ 0x5deece66dULL;
  const auto sgd_start = std::chrono::steady_clock::now();
  Result<Inf2vecModel> model = TrainFromCorpus(corpus, graph.num_users(),
                                               sgd_config, nullptr);
  if (obs::MetricsEnabled()) {
    // Phase split of the end-to-end run (Fig. 9's two-phase accounting);
    // set here because the phase boundary is internal to Train().
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetGauge("train.corpus_seconds")->Set(corpus_seconds);
    registry.GetGauge("train.sgd_seconds")->Set(SecondsSince(sgd_start));
  }
  if (!model.ok()) return model.status();
  Inf2vecModel out = std::move(model).value();
  out.config_ = config;
  return out;
}

}  // namespace inf2vec
