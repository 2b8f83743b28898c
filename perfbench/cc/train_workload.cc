// The `train` workload's system side.
#include <algorithm>
#include <filesystem>
#include <thread>

#include "action/action_log_io.h"
#include "checks.h"
#include "diffusion/context_generator.h"
#include "diffusion/propagation_network.h"
#include "embedding/model_io.h"
#include "eval/activation_task.h"
#include "graph/graph_io.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "subcommands.h"
#include "util/thread_pool.h"
#include "workload_inputs.h"

namespace perfbench {

using inf2vec::Result;
using inf2vec::Status;
using inf2vec::obs::JsonValue;

inf2vec::InfluenceCorpus BuildBenchCorpus(const inf2vec::SocialGraph& graph,
                                          const inf2vec::ActionLog& train_log,
                                          const inf2vec::Inf2vecConfig& config,
                                          SpanLog* spans, uint64_t parent) {
  ScopedSpan span(spans, "core.corpus", parent);
  inf2vec::ThreadPool pool(config.num_threads);
  inf2vec::CorpusBuildOptions build;
  build.seed = config.seed;
  build.pool = &pool;
  return inf2vec::BuildInfluenceCorpus(graph, train_log, config.context,
                                       graph.num_users(), build);
}

Result<inf2vec::Inf2vecModel> TrainBenchModel(
    const inf2vec::InfluenceCorpus& corpus, uint32_t num_users,
    const inf2vec::Inf2vecConfig& config, SpanLog* spans, uint64_t parent,
    double* cpu_seconds) {
  // Inf2vecModel::Train offsets the SGD stream from the corpus stream the
  // same way.
  inf2vec::Inf2vecConfig sgd_config = config;
  sgd_config.seed = config.seed ^ 0x5deece66dULL;
  const double cpu_start = ProcessCpuSeconds();
  ScopedSpan span(spans, "embedding.sgd", parent);
  Result<inf2vec::Inf2vecModel> model = inf2vec::Inf2vecModel::TrainFromCorpus(
      corpus, num_users, sgd_config, nullptr);
  span.Close();
  if (cpu_seconds != nullptr) *cpu_seconds = ProcessCpuSeconds() - cpu_start;
  return model;
}

Status SaveBenchModel(const inf2vec::Inf2vecModel& model,
                      const std::string& path, SpanLog* spans,
                      uint64_t parent) {
  ScopedSpan span(spans, "embedding.save", parent);
  const inf2vec::Inf2vecConfig& config = model.config();
  inf2vec::ModelMetadata metadata;
  metadata.aggregation = inf2vec::AggregationName(config.aggregation);
  metadata.dim = config.dim;
  metadata.context_length = config.context.length;
  metadata.alpha = config.context.alpha;
  metadata.epochs = config.epochs;
  metadata.learning_rate = config.sgd.learning_rate;
  metadata.num_negatives = config.sgd.num_negatives;
  metadata.seed = config.seed;
  metadata.num_threads = config.num_threads;
  metadata.git_sha = inf2vec::obs::GetBuildInfo().git_sha;
  return inf2vec::SaveModelArtifact(model.embeddings(), metadata, path);
}

namespace {

/// Set-up as `inf2vec_cli train` does it: both TSV files, the user-id
/// bound check, then the 80/10/10 split.
struct TrainInputs {
  inf2vec::SocialGraph graph;
  inf2vec::LogSplit split;
};

Result<TrainInputs> LoadTrainInputs(const std::string& dir, uint64_t seed,
                                    SpanLog* spans, uint64_t parent) {
  TrainInputs inputs;
  {
    ScopedSpan span(spans, "graph.load", parent);
    Result<inf2vec::SocialGraph> graph =
        inf2vec::LoadEdgeListAutoSize(dir + "/graph.tsv");
    INF2VEC_RETURN_IF_ERROR(graph.status());
    inputs.graph = std::move(graph).value();
  }
  ScopedSpan span(spans, "action.load", parent);
  Result<inf2vec::ActionLog> log = inf2vec::LoadActionLog(dir + "/actions.tsv");
  INF2VEC_RETURN_IF_ERROR(log.status());
  for (const inf2vec::DiffusionEpisode& episode : log.value().episodes()) {
    for (const inf2vec::Adoption& adoption : episode.adoptions()) {
      if (adoption.user >= inputs.graph.num_users()) {
        return Status::InvalidArgument(
            "action log references user beyond the graph's id space");
      }
    }
  }
  inputs.split = SplitBenchLog(log.value(), seed);
  return inputs;
}

/// Latency quantile (nearest rank) of `samples`, which it sorts.
double QuantileNs(std::vector<uint32_t>* samples, double q) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  const size_t rank = std::min(
      samples->size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples->size())));
  return static_cast<double>((*samples)[rank]);
}

/// Activation queries on the freshly trained model, in process:
/// kTrainThreads closed-loop callers of EmbeddingPredictor::ScoreActivation
/// (the call EvaluateActivation makes per case) over the test split's cases
/// for `seconds`. qps counts the calls over the whole period.
JsonValue InProcessQueries(const inf2vec::EmbeddingPredictor& predictor,
                           const std::vector<inf2vec::ActivationCase>& cases,
                           double seconds) {
  std::vector<std::vector<uint32_t>> latencies(kTrainThreads);
  const uint64_t start = MonoNs();
  const uint64_t stop = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kTrainThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint32_t>& out = latencies[t];
      out.reserve(1 << 22);
      for (size_t i = t;; i += kTrainThreads) {
        const inf2vec::ActivationCase& c = cases[i % cases.size()];
        const uint64_t begin = MonoNs();
        if (begin >= stop) break;
        predictor.ScoreActivation(c.candidate, c.influencers);
        out.push_back(static_cast<uint32_t>(
            std::min<uint64_t>(MonoNs() - begin, UINT32_MAX)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s = SecondsBetween(start, MonoNs());
  std::vector<uint32_t> all;
  for (const auto& part : latencies) all.insert(all.end(), part.begin(), part.end());
  JsonValue out = JsonValue::Object();
  out.Set("requests", static_cast<uint64_t>(all.size()));
  out.Set("qps", static_cast<double>(all.size()) / elapsed_s);
  out.Set("p50_ms", QuantileNs(&all, 0.50) * 1e-6);
  out.Set("p99_ms", QuantileNs(&all, 0.99) * 1e-6);
  return out;
}

/// One serial pass over the training episodes timing the two diffusion
/// calls the corpus build makes per episode (traced run only).
JsonValue DiffusionPass(const inf2vec::SocialGraph& graph,
                        const inf2vec::ActionLog& train_log,
                        const inf2vec::ContextOptions& options, uint64_t seed,
                        SpanLog* spans, uint64_t parent) {
  ScopedSpan pass(spans, "diffusion.pass", parent);
  inf2vec::Rng rng(seed);
  double network_s = 0.0;
  double context_s = 0.0;
  uint64_t contexts = 0;
  for (const inf2vec::DiffusionEpisode& episode : train_log.episodes()) {
    const uint64_t t0 = MonoNs();
    const inf2vec::PropagationNetwork network(graph, episode);
    const uint64_t t1 = MonoNs();
    contexts += inf2vec::GenerateEpisodeContexts(network, options, rng).size();
    const uint64_t t2 = MonoNs();
    network_s += SecondsBetween(t0, t1);
    context_s += SecondsBetween(t1, t2);
  }
  JsonValue out = JsonValue::Object();
  out.Set("network_s", network_s);
  out.Set("context_s", context_s);
  out.Set("contexts", contexts);
  return out;
}

}  // namespace

Status RunTrain(const inf2vec::FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Status::InvalidArgument("--dir is required");
  Result<int64_t> seed = flags.GetInt("seed", 1);
  Result<int64_t> epochs = flags.GetInt("epochs", 2);
  Result<double> auc_floor = flags.GetDouble("auc-floor", 0.0);
  Result<double> query_seconds = flags.GetDouble("query-seconds", 2.0);
  for (const Status& s : {seed.status(), epochs.status(), auc_floor.status(),
                          query_seconds.status()}) {
    INF2VEC_RETURN_IF_ERROR(s);
  }
  if (epochs.value() <= 0) {
    return Status::InvalidArgument("--epochs must be > 0");
  }
  const bool trace = flags.GetBool("trace", false);
  INF2VEC_RETURN_IF_ERROR(PinKernel(flags.GetString("kernel", "")));
  const uint64_t workload_seed = static_cast<uint64_t>(seed.value());

  SpanLog spans;
  ScopedSpan setup(&spans, "setup");
  Result<TrainInputs> inputs =
      LoadTrainInputs(dir, workload_seed, &spans, setup.id());
  INF2VEC_RETURN_IF_ERROR(inputs.status());
  const double setup_s = setup.Close();
  if (flags.GetBool("setup-only", false)) {
    // run.py repeats set-up in fresh processes, so the training process's
    // peak RSS holds one set-up only.
    JsonValue result = JsonValue::Object();
    result.Set("setup_s", setup_s);
    result.Set("spans", spans.ToJson());
    PrintResult(result);
    return Status::OK();
  }
  const inf2vec::SocialGraph& graph = inputs.value().graph;
  const inf2vec::ActionLog& train_log = inputs.value().split.train;

  inf2vec::Inf2vecConfig config =
      BenchTrainConfig(workload_seed, static_cast<uint32_t>(epochs.value()));
  std::vector<inf2vec::EpochStats> epoch_stats;
  if (trace) {
    // Turns on the program's own BuildInfluenceCorpus / sgd.epoch spans and
    // per-epoch objective accumulation: tracing overhead this run reports.
    inf2vec::obs::TraceCollector::Default().Clear();
    inf2vec::obs::TraceCollector::Default().set_enabled(true);
    config.epoch_callback = [&epoch_stats](const inf2vec::EpochStats& stats) {
      epoch_stats.push_back(stats);
    };
  }

  // The timed part: corpus, SGD epochs, artifact save.
  const std::string model_path = dir + "/model.bin";
  ScopedSpan train(&spans, "train");
  uint64_t tuples = 0;
  uint64_t pairs = 0;
  double sgd_cpu_s = 0.0;
  Result<inf2vec::Inf2vecModel> model = [&] {
    const inf2vec::InfluenceCorpus corpus =
        BuildBenchCorpus(graph, train_log, config, &spans, train.id());
    tuples = corpus.num_tuples;
    pairs = corpus.pairs.size();
    return TrainBenchModel(corpus, graph.num_users(), config, &spans,
                           train.id(), &sgd_cpu_s);
  }();
  INF2VEC_RETURN_IF_ERROR(model.status());
  const double sgd_s = SecondsBetween(spans.spans().back().start_ns,
                                      spans.spans().back().end_ns);
  INF2VEC_RETURN_IF_ERROR(
      SaveBenchModel(model.value(), model_path, &spans, train.id()));
  const double train_s = train.Close();
  const double peak_rss_mb =
      static_cast<double>(inf2vec::obs::PeakRssBytes()) / 1e6;
  inf2vec::obs::TraceCollector::Default().set_enabled(false);

  // Answer checks and quality, outside the timed part.
  Result<inf2vec::ModelArtifact> reloaded =
      inf2vec::LoadModelArtifact(model_path);
  INF2VEC_RETURN_IF_ERROR(reloaded.status());
  const Status reload_check =
      CheckReloadIdentical(model.value().embeddings(), reloaded.value().store);
  const inf2vec::EmbeddingPredictor predictor = model.value().Predictor();
  const double auc =
      inf2vec::EvaluateActivation(predictor, graph, inputs.value().split.test)
          .auc;
  const Status auc_check = CheckAucFloor(auc, auc_floor.value());

  std::vector<inf2vec::ActivationCase> cases;
  for (const inf2vec::DiffusionEpisode& episode :
       inputs.value().split.test.episodes()) {
    std::vector<inf2vec::ActivationCase> part =
        inf2vec::BuildActivationCases(graph, episode);
    cases.insert(cases.end(), part.begin(), part.end());
  }
  if (cases.empty()) return Status::Internal("test split has no cases");
  const JsonValue queries =
      InProcessQueries(predictor, cases, query_seconds.value());

  JsonValue result = JsonValue::Object();
  result.Set("provenance", ProvenanceJson());
  result.Set("setup_s", setup_s);
  result.Set("train_s", train_s);
  result.Set("train_auc", auc);
  result.Set("peak_rss_mb", peak_rss_mb);
  result.Set("queries", queries);
  JsonValue checks = JsonValue::Object();
  checks.Set("reload_identical", reload_check.ok() ? "ok" : reload_check.message());
  checks.Set("auc_floor", auc_check.ok() ? "ok" : auc_check.message());
  result.Set("checks", std::move(checks));
  result.Set("correct", reload_check.ok() && auc_check.ok());

  JsonValue layers = JsonValue::Object();
  layers.Set("diffusion.contexts", tuples);
  layers.Set("core.pairs", pairs);
  const uint32_t negatives = config.sgd.num_negatives;
  const uint64_t grad_steps = pairs * config.epochs * (1 + negatives);
  layers.Set("kernels.grad_steps", grad_steps);
  // Each update reads the S_u and T_w rows and writes T_w back, at the
  // padded row stride.
  const double row_bytes =
      sizeof(double) * model.value().embeddings().row_stride();
  layers.Set("kernels.grad_mb",
             static_cast<double>(grad_steps) * 3.0 * row_bytes / 1e6);
  layers.Set("embedding.sgd_parallelism", sgd_cpu_s / sgd_s);
  layers.Set("embedding.artifact_mb",
             static_cast<double>(std::filesystem::file_size(model_path)) / 1e6);
  if (trace) {
    std::vector<double> epoch_s;
    for (const inf2vec::EpochStats& stats : epoch_stats) {
      epoch_s.push_back(stats.seconds);
    }
    layers.Set("embedding.epoch_s", Median(epoch_s));
    layers.Set("embedding.objective",
               epoch_stats.empty() ? 0.0 : epoch_stats.back().objective);
    JsonValue program_spans = JsonValue::Array();
    for (const inf2vec::obs::TraceEvent& event :
         inf2vec::obs::TraceCollector::Default().Events()) {
      JsonValue row = JsonValue::Object();
      row.Set("name", event.name);
      row.Set("duration_us", event.duration_us);
      program_spans.Append(std::move(row));
    }
    result.Set("program_spans", std::move(program_spans));
    layers.Set("diffusion", DiffusionPass(graph, train_log, config.context,
                                          workload_seed, &spans, 0));
  }
  result.Set("layers", std::move(layers));
  result.Set("spans", spans.ToJson());
  PrintResult(result);
  return Status::OK();
}

}  // namespace perfbench
