#include "cli_commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "action/action_log_io.h"
#include "ckpt/checkpoint.h"
#include "ckpt/incremental.h"
#include "core/inf2vec_model.h"
#include "embedding/model_io.h"
#include "eval/activation_task.h"
#include "eval/diffusion_task.h"
#include "eval/harness.h"
#include "graph/graph_io.h"
#include "kernels/kernels.h"
#include "obs/access_log.h"
#include "obs/build_info.h"
#include "obs/heap_profiler.h"
#include "obs/http_server.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/request_obs.h"
#include "obs/run_report.h"
#include "obs/run_status.h"
#include "obs/snapshotter.h"
#include "obs/trace.h"
#include "serve/influence_service.h"
#include "serve/model_swapper.h"
#include "serve/serve_endpoints.h"
#include "shard/coordinator.h"
#include "shard/shard_service.h"
#include "shard/shard_split.h"
#include "synth/world_generator.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace inf2vec {
namespace cli {
namespace {

/// Run report for the in-flight command; non-null only while Dispatch is
/// executing with --metrics-out, so the Run* commands can contribute
/// config echo, phases, and epoch rows.
obs::RunReport* g_active_report = nullptr;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Applies the global observability flags (--log-level, --metrics-out,
/// --trace-out, --serve-port, --metrics-snapshot-out) before the command
/// runs. Any of --metrics-out / --serve-port / --metrics-snapshot-out
/// turns metric recording on; the registry is reset once so every sink
/// sees the same run-scoped counts.
Status SetupObservability(const FlagParser& flags) {
  // Pin the SIMD backend before any kernel call dispatches. "auto" is the
  // CPUID-selected default made explicit.
  const std::string kernel_name = flags.GetString("kernel", "");
  if (!kernel_name.empty()) {
    kernels::Isa isa;
    if (!kernels::ParseIsaName(kernel_name, &isa)) {
      return Status::InvalidArgument(
          "--kernel must be one of scalar, avx2, auto");
    }
    if (!kernels::SetActiveIsa(isa)) {
      return Status::InvalidArgument(
          std::string("--kernel ") + kernels::IsaName(isa) +
          " requested but that backend is not available in this "
          "binary/CPU");
    }
    INF2VEC_LOG(Info) << "kernel backend pinned to "
                      << kernels::IsaName(kernels::ActiveIsa());
  }
  const std::string level_name = flags.GetString("log-level", "");
  if (!level_name.empty()) {
    LogLevel level;
    if (!ParseLogLevel(level_name, &level)) {
      return Status::InvalidArgument(
          "--log-level must be one of debug, info, warning, error, fatal");
    }
    SetMinLogLevel(level);
  }
  const bool want_metrics =
      !flags.GetString("metrics-out", "").empty() || flags.Has("serve-port") ||
      !flags.GetString("metrics-snapshot-out", "").empty();
  if (want_metrics) {
    obs::MetricsRegistry::Default().Reset();
    obs::EnableMetrics(true);
    obs::InstallThreadPoolMetrics();
  }
  if (!flags.GetString("trace-out", "").empty()) {
    obs::TraceCollector::Default().Clear();
    obs::TraceCollector::Default().set_enabled(true);
  }
  // Whole-run CPU profile: armed before the command body, disarmed (and
  // written as folded stacks) by Dispatch after it returns.
  if (!flags.GetString("profile-out", "").empty()) {
    INF2VEC_RETURN_IF_ERROR(obs::CpuProfiler::Default().Start());
  }
  // Whole-run sampling heap profile, same lifecycle as --profile-out.
  if (!flags.GetString("heap-profile-out", "").empty()) {
    obs::HeapProfiler::Options options;
    Result<int64_t> period = flags.GetInt(
        "heap-profile-period", static_cast<int64_t>(options.sample_period_bytes));
    INF2VEC_RETURN_IF_ERROR(period.status());
    if (period.value() <= 0) {
      return Status::InvalidArgument("--heap-profile-period must be positive");
    }
    options.sample_period_bytes = static_cast<uint64_t>(period.value());
    INF2VEC_RETURN_IF_ERROR(obs::HeapProfiler::Default().Start(options));
  }
  return Status::OK();
}

/// RankingMetrics as the report's "eval" payload.
obs::JsonValue EvalSection(const std::string& task,
                           const RankingMetrics& metrics) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("task", task);
  out.Set("auc", metrics.auc);
  out.Set("map", metrics.map);
  out.Set("p10", metrics.p10);
  out.Set("p50", metrics.p50);
  out.Set("p100", metrics.p100);
  out.Set("num_queries", metrics.num_queries);
  return out;
}


/// Loads the graph + action log named by --graph / --actions.
Status LoadWorldInputs(const FlagParser& flags, SocialGraph* graph,
                       ActionLog* log) {
  const std::string graph_path = flags.GetString("graph", "");
  const std::string actions_path = flags.GetString("actions", "");
  if (graph_path.empty() || actions_path.empty()) {
    return Status::InvalidArgument("--graph and --actions are required");
  }
  Result<SocialGraph> g = LoadEdgeListAutoSize(graph_path);
  INF2VEC_RETURN_IF_ERROR(g.status());
  Result<ActionLog> a = LoadActionLog(actions_path);
  INF2VEC_RETURN_IF_ERROR(a.status());
  *graph = std::move(g).value();
  *log = std::move(a).value();
  // Action ids must fit the graph's user space.
  for (const DiffusionEpisode& e : log->episodes()) {
    for (const Adoption& adoption : e.adoptions()) {
      if (adoption.user >= graph->num_users()) {
        return Status::InvalidArgument(
            "action log references user beyond the graph's id space");
      }
    }
  }
  return Status::OK();
}

Result<Inf2vecConfig> ConfigFromFlags(const FlagParser& flags) {
  Inf2vecConfig config;
  Result<int64_t> dim = flags.GetInt("dim", config.dim);
  INF2VEC_RETURN_IF_ERROR(dim.status());
  config.dim = static_cast<uint32_t>(dim.value());
  Result<double> alpha = flags.GetDouble("alpha", config.context.alpha);
  INF2VEC_RETURN_IF_ERROR(alpha.status());
  config.context.alpha = alpha.value();
  Result<int64_t> length = flags.GetInt("length", config.context.length);
  INF2VEC_RETURN_IF_ERROR(length.status());
  config.context.length = static_cast<uint32_t>(length.value());
  Result<int64_t> epochs = flags.GetInt("epochs", config.epochs);
  INF2VEC_RETURN_IF_ERROR(epochs.status());
  config.epochs = static_cast<uint32_t>(epochs.value());
  Result<double> lr = flags.GetDouble("lr", config.sgd.learning_rate);
  INF2VEC_RETURN_IF_ERROR(lr.status());
  config.sgd.learning_rate = lr.value();
  Result<int64_t> negatives =
      flags.GetInt("negatives", config.sgd.num_negatives);
  INF2VEC_RETURN_IF_ERROR(negatives.status());
  config.sgd.num_negatives = static_cast<uint32_t>(negatives.value());
  Result<int64_t> seed = flags.GetInt("seed", config.seed);
  INF2VEC_RETURN_IF_ERROR(seed.status());
  config.seed = static_cast<uint64_t>(seed.value());
  Result<int64_t> threads = flags.GetInt("threads", config.num_threads);
  INF2VEC_RETURN_IF_ERROR(threads.status());
  if (threads.value() < 0) {
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = all hardware threads)");
  }
  config.num_threads = static_cast<uint32_t>(threads.value());
  if (flags.GetBool("local-only", false)) config.context.alpha = 1.0;
  if (flags.GetBool("bfs-context", false)) {
    config.context.strategy = LocalContextStrategy::kForwardBfs;
  }
  if (config.dim == 0 || config.context.length == 0 || config.epochs == 0) {
    return Status::InvalidArgument("dim, length and epochs must be positive");
  }
  return config;
}

}  // namespace

Status RunGenerate(const FlagParser& flags) {
  const std::string out_dir = flags.GetString("out", "");
  if (out_dir.empty()) return Status::InvalidArgument("--out is required");
  const std::string profile_name = flags.GetString("profile", "digg");

  synth::WorldProfile profile;
  if (profile_name == "digg") {
    profile = synth::WorldProfile::DiggLike();
  } else if (profile_name == "flickr") {
    profile = synth::WorldProfile::FlickrLike();
  } else {
    return Status::InvalidArgument("--profile must be digg or flickr");
  }
  Result<int64_t> users = flags.GetInt("users", profile.num_users);
  INF2VEC_RETURN_IF_ERROR(users.status());
  profile.num_users = static_cast<uint32_t>(users.value());
  Result<int64_t> items = flags.GetInt("items", profile.num_items);
  INF2VEC_RETURN_IF_ERROR(items.status());
  profile.num_items = static_cast<uint32_t>(items.value());
  Result<int64_t> seed = flags.GetInt("seed", 42);
  INF2VEC_RETURN_IF_ERROR(seed.status());

  Rng rng(static_cast<uint64_t>(seed.value()));
  Result<synth::World> world = synth::GenerateWorld(profile, rng);
  INF2VEC_RETURN_IF_ERROR(world.status());

  const std::string graph_path = out_dir + "/graph.tsv";
  const std::string actions_path = out_dir + "/actions.tsv";
  INF2VEC_RETURN_IF_ERROR(SaveEdgeList(world.value().graph, graph_path));
  INF2VEC_RETURN_IF_ERROR(SaveActionLog(world.value().log, actions_path));
  INF2VEC_LOG(Info) << "wrote " << graph_path << " ("
                    << world.value().graph.num_users() << " users, "
                    << world.value().graph.num_edges() << " edges)";
  INF2VEC_LOG(Info) << "wrote " << actions_path << " ("
                    << world.value().log.num_episodes() << " episodes, "
                    << world.value().log.num_actions() << " actions)";
  return Status::OK();
}

Status RunTrain(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Status::InvalidArgument("--model is required");
  const std::string eval_task = flags.GetString("eval-task", "");
  if (!eval_task.empty() && eval_task != "activation" &&
      eval_task != "diffusion") {
    return Status::InvalidArgument(
        "--eval-task must be activation or diffusion");
  }
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  const bool resume = flags.GetBool("resume", false);
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir");
  }

  // A resumed run needs no corpus inputs — the checkpoint carries the
  // flattened pairs (in their exact shuffled order) and frequencies —
  // unless --eval-task asks for a post-train evaluation over them.
  const auto load_start = std::chrono::steady_clock::now();
  SocialGraph graph;
  ActionLog log;
  if (!resume || !eval_task.empty()) {
    INF2VEC_RETURN_IF_ERROR(LoadWorldInputs(flags, &graph, &log));
  }
  const double load_seconds = SecondsSince(load_start);
  Result<Inf2vecConfig> config_result = ConfigFromFlags(flags);
  INF2VEC_RETURN_IF_ERROR(config_result.status());
  Inf2vecConfig config = config_result.value();

  obs::RunReport* report = g_active_report;
  if (report != nullptr) {
    report->SetConfig("dim", config.dim);
    report->SetConfig("alpha", config.context.alpha);
    report->SetConfig("length", config.context.length);
    report->SetConfig("epochs", config.epochs);
    report->SetConfig("learning_rate", config.sgd.learning_rate);
    report->SetConfig("num_negatives", config.sgd.num_negatives);
    report->SetConfig("seed", config.seed);
    report->SetConfig("num_threads", config.num_threads);
    report->SetConfig("shuffle_pairs", config.shuffle_pairs);
    report->SetConfig(
        "local_context",
        config.context.strategy == LocalContextStrategy::kForwardBfs
            ? "forward_bfs"
            : "random_walk_restart");
    report->AddPhase("load", load_seconds);
  }

  // Per-epoch progress/report hook. Either sink turns on objective
  // accumulation; leave both off for maximum-throughput runs.
  const bool progress = flags.GetBool("progress", false);
  if (progress || report != nullptr) {
    config.epoch_callback = [report, progress](const EpochStats& stats) {
      if (report != nullptr) {
        report->AddEpoch({stats.epoch, stats.objective, stats.learning_rate,
                          stats.pairs, stats.seconds,
                          stats.pairs_per_second});
      }
      if (progress) {
        const double eta_seconds =
            stats.seconds *
            static_cast<double>(stats.total_epochs - stats.epoch - 1);
        std::fprintf(stderr,
                     "epoch %u/%u objective=%.6f pairs/s=%.0f eta=%.1fs\n",
                     stats.epoch + 1, stats.total_epochs, stats.objective,
                     stats.pairs_per_second, eta_seconds);
      }
    };
  }

  // Durable checkpoints: the writer persists the full resumable training
  // state every --checkpoint-every epochs (and prunes beyond --keep-last);
  // --resume restarts from the newest checkpoint instead of epoch 0.
  std::unique_ptr<ckpt::CheckpointWriter> writer;
  uint64_t config_hash = 0;
  if (!checkpoint_dir.empty()) {
    ckpt::CheckpointOptions ckpt_options;
    ckpt_options.dir = checkpoint_dir;
    Result<int64_t> every = flags.GetInt("checkpoint-every", 1);
    INF2VEC_RETURN_IF_ERROR(every.status());
    if (every.value() <= 0) {
      return Status::InvalidArgument("--checkpoint-every must be positive");
    }
    ckpt_options.every = static_cast<uint32_t>(every.value());
    Result<int64_t> keep = flags.GetInt("keep-last", 3);
    INF2VEC_RETURN_IF_ERROR(keep.status());
    if (keep.value() < 0) {
      return Status::InvalidArgument(
          "--keep-last must be >= 0 (0 keeps every checkpoint)");
    }
    ckpt_options.keep_last_n = static_cast<uint32_t>(keep.value());
    config_hash = ckpt::HashTrainingConfig(config);
    writer =
        std::make_unique<ckpt::CheckpointWriter>(ckpt_options, config_hash);
    config.checkpoint_callback = writer->AsCallback();
    if (report != nullptr) {
      report->SetConfig("checkpoint_dir", checkpoint_dir);
      report->SetConfig("checkpoint_every", ckpt_options.every);
      report->SetConfig("resume", resume);
    }
  }

  const auto train_start = std::chrono::steady_clock::now();
  Result<Inf2vecModel> model = [&]() -> Result<Inf2vecModel> {
    if (!resume) return Inf2vecModel::Train(graph, log, config);
    Result<ckpt::CheckpointState> state =
        ckpt::ReadLatestCheckpoint(checkpoint_dir, config_hash);
    if (!state.ok()) return state.status();
    INF2VEC_LOG(Info) << "resuming from checkpoint at epoch "
                      << state.value().epochs_completed << "/"
                      << config.epochs << " (" << checkpoint_dir << ")";
    return Inf2vecModel::ResumeFromState(
        ckpt::ToResumeState(std::move(state).value()), config);
  }();
  INF2VEC_RETURN_IF_ERROR(model.status());
  const double train_seconds = SecondsSince(train_start);
  if (report != nullptr) {
    // Phase split measured inside Train() (corpus build vs SGD epochs).
    const obs::MetricsRegistry::Snapshot snapshot =
        obs::MetricsRegistry::Default().Scrape();
    report->AddPhase("corpus",
                     snapshot.GaugeOr("train.corpus_seconds", 0.0));
    report->AddPhase("sgd", snapshot.GaugeOr("train.sgd_seconds", 0.0));
    report->AddPhase("train", train_seconds);
  }

  // The saved artifact carries its own provenance (served back at /modelz
  // when the model is loaded by `serve`).
  ModelMetadata metadata;
  metadata.aggregation = AggregationName(config.aggregation);
  metadata.dim = config.dim;
  metadata.context_length = config.context.length;
  metadata.alpha = config.context.alpha;
  metadata.epochs = config.epochs;
  metadata.learning_rate = config.sgd.learning_rate;
  metadata.num_negatives = config.sgd.num_negatives;
  metadata.seed = config.seed;
  metadata.num_threads = config.num_threads;
  metadata.git_sha = obs::GetBuildInfo().git_sha;
  INF2VEC_RETURN_IF_ERROR(
      SaveModelArtifact(model.value().embeddings(), metadata, model_path));
  if (resume) {
    INF2VEC_LOG(Info) << "resumed training to epoch " << config.epochs
                      << "; model -> " << model_path;
  } else {
    INF2VEC_LOG(Info) << "trained K=" << config.dim << " on "
                      << log.num_episodes() << " episodes; model -> "
                      << model_path;
  }

  // Optional single-run train+eval: score the fresh model on the training
  // world and attach the result to the report.
  if (!eval_task.empty()) {
    const auto eval_start = std::chrono::steady_clock::now();
    const EmbeddingPredictor predictor = model.value().Predictor();
    RankingMetrics metrics;
    if (eval_task == "activation") {
      metrics = EvaluateActivation(predictor, graph, log);
    } else {
      DiffusionTaskOptions options;
      Result<double> fraction =
          flags.GetDouble("seed-fraction", options.seed_fraction);
      INF2VEC_RETURN_IF_ERROR(fraction.status());
      options.seed_fraction = fraction.value();
      Rng rng(1);
      metrics = EvaluateDiffusion(predictor, graph.num_users(), log, options,
                                  rng);
    }
    if (report != nullptr) {
      report->AddPhase("eval", SecondsSince(eval_start));
      report->SetSection("eval", EvalSection(eval_task, metrics));
    }
    ResultTable table(eval_task + " evaluation");
    table.AddRow("model", metrics);
    table.Print();
  }
  return Status::OK();
}

Status RunUpdate(const FlagParser& flags) {
  const std::string model_in = flags.GetString("model", "");
  const std::string out = flags.GetString("out", "");
  const std::string graph_path = flags.GetString("graph", "");
  const std::string delta_path = flags.GetString("delta", "");
  if (model_in.empty() || out.empty() || graph_path.empty() ||
      delta_path.empty()) {
    return Status::InvalidArgument(
        "update requires --model, --graph, --delta and --out");
  }

  Result<ModelArtifact> artifact = LoadModelArtifact(model_in);
  INF2VEC_RETURN_IF_ERROR(artifact.status());
  Result<SocialGraph> graph = LoadEdgeListAutoSize(graph_path);
  INF2VEC_RETURN_IF_ERROR(graph.status());
  Result<ActionLog> delta = LoadActionLog(delta_path);
  INF2VEC_RETURN_IF_ERROR(delta.status());
  for (const DiffusionEpisode& e : delta.value().episodes()) {
    for (const Adoption& adoption : e.adoptions()) {
      if (adoption.user >= graph.value().num_users()) {
        return Status::InvalidArgument(
            "delta log references user beyond the graph's id space");
      }
    }
  }

  // The base training config is reconstructed from the artifact's
  // provenance metadata so the delta pass trains the same model family
  // (legacy zero fields fall back to the paper defaults).
  const ModelMetadata& meta = artifact.value().metadata;
  Inf2vecConfig base_config;
  base_config.dim = artifact.value().store.dim();
  if (meta.context_length > 0) base_config.context.length = meta.context_length;
  if (meta.alpha > 0.0) base_config.context.alpha = meta.alpha;
  if (meta.learning_rate > 0.0) base_config.sgd.learning_rate =
      meta.learning_rate;
  if (meta.num_negatives > 0) base_config.sgd.num_negatives =
      meta.num_negatives;
  Result<Aggregation> aggregation = ParseAggregation(meta.aggregation);
  if (aggregation.ok()) base_config.aggregation = aggregation.value();
  Result<int64_t> threads = flags.GetInt("threads", 1);
  INF2VEC_RETURN_IF_ERROR(threads.status());
  if (threads.value() < 0) {
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = all hardware threads)");
  }
  base_config.num_threads = static_cast<uint32_t>(threads.value());

  ckpt::IncrementalOptions options;
  Result<int64_t> epochs = flags.GetInt("epochs", options.epochs);
  INF2VEC_RETURN_IF_ERROR(epochs.status());
  if (epochs.value() <= 0) {
    return Status::InvalidArgument("--epochs must be positive");
  }
  options.epochs = static_cast<uint32_t>(epochs.value());
  Result<double> lr_scale = flags.GetDouble("lr-scale", options.lr_scale);
  INF2VEC_RETURN_IF_ERROR(lr_scale.status());
  options.lr_scale = lr_scale.value();
  Result<int64_t> seed = flags.GetInt("seed", options.seed);
  INF2VEC_RETURN_IF_ERROR(seed.status());
  options.seed = static_cast<uint64_t>(seed.value());

  const uint32_t base_users = artifact.value().store.num_users();
  const auto update_start = std::chrono::steady_clock::now();
  Result<Inf2vecModel> updated = ckpt::IncrementalUpdate(
      std::move(artifact.value().store), graph.value(), delta.value(),
      base_config, options);
  INF2VEC_RETURN_IF_ERROR(updated.status());
  if (g_active_report != nullptr) {
    g_active_report->SetConfig("delta_episodes",
                               delta.value().num_episodes());
    g_active_report->SetConfig("epochs", options.epochs);
    g_active_report->SetConfig("lr_scale", options.lr_scale);
    g_active_report->AddPhase("update", SecondsSince(update_start));
  }

  ModelMetadata out_meta = meta;
  out_meta.dim = base_config.dim;
  out_meta.epochs = options.epochs;
  out_meta.learning_rate = base_config.sgd.learning_rate * options.lr_scale;
  out_meta.seed = options.seed;
  out_meta.num_threads = base_config.num_threads;
  out_meta.git_sha = obs::GetBuildInfo().git_sha;
  INF2VEC_RETURN_IF_ERROR(SaveModelArtifact(updated.value().embeddings(),
                                            out_meta, out));
  INF2VEC_LOG(Info) << "incrementally updated " << base_users << " -> "
                    << updated.value().embeddings().num_users()
                    << " users over " << delta.value().num_episodes()
                    << " delta episodes; model -> " << out;
  return Status::OK();
}

Status RunScore(const FlagParser& flags) {
  Result<EmbeddingStore> store =
      LoadEmbeddings(flags.GetString("model", ""));
  INF2VEC_RETURN_IF_ERROR(store.status());
  Result<int64_t> source = flags.GetInt("source", -1);
  INF2VEC_RETURN_IF_ERROR(source.status());
  Result<int64_t> target = flags.GetInt("target", -1);
  INF2VEC_RETURN_IF_ERROR(target.status());
  if (source.value() < 0 || target.value() < 0 ||
      source.value() >= store.value().num_users() ||
      target.value() >= store.value().num_users()) {
    return Status::InvalidArgument("--source/--target out of range");
  }
  std::printf("x(%lld -> %lld) = %+.6f\n",
              static_cast<long long>(source.value()),
              static_cast<long long>(target.value()),
              store.value().Score(static_cast<UserId>(source.value()),
                                  static_cast<UserId>(target.value())));
  return Status::OK();
}

Status RunTop(const FlagParser& flags) {
  Result<EmbeddingStore> store =
      LoadEmbeddings(flags.GetString("model", ""));
  INF2VEC_RETURN_IF_ERROR(store.status());
  Result<int64_t> source = flags.GetInt("source", -1);
  INF2VEC_RETURN_IF_ERROR(source.status());
  Result<int64_t> k = flags.GetInt("k", 10);
  INF2VEC_RETURN_IF_ERROR(k.status());
  if (source.value() < 0 || source.value() >= store.value().num_users()) {
    return Status::InvalidArgument("--source out of range");
  }
  const UserId u = static_cast<UserId>(source.value());

  std::vector<UserId> order(store.value().num_users());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    return store.value().Score(u, a) > store.value().Score(u, b);
  });
  std::printf("top-%lld users most influenced by %u:\n",
              static_cast<long long>(k.value()), u);
  int64_t printed = 0;
  for (UserId v : order) {
    if (v == u) continue;
    std::printf("  %-8u %+.6f\n", v, store.value().Score(u, v));
    if (++printed >= k.value()) break;
  }
  return Status::OK();
}

Status RunEvaluate(const FlagParser& flags) {
  SocialGraph graph;
  ActionLog log;
  INF2VEC_RETURN_IF_ERROR(LoadWorldInputs(flags, &graph, &log));
  Result<EmbeddingStore> store =
      LoadEmbeddings(flags.GetString("model", ""));
  INF2VEC_RETURN_IF_ERROR(store.status());
  if (store.value().num_users() < graph.num_users()) {
    return Status::InvalidArgument("model smaller than graph user space");
  }
  Result<Aggregation> aggregation =
      ParseAggregation(flags.GetString("aggregation", "Ave"));
  INF2VEC_RETURN_IF_ERROR(aggregation.status());
  const EmbeddingPredictor predictor("model", &store.value(),
                                     aggregation.value());

  const std::string task = flags.GetString("task", "activation");
  const auto eval_start = std::chrono::steady_clock::now();
  RankingMetrics metrics;
  if (task == "activation") {
    metrics = EvaluateActivation(predictor, graph, log);
  } else if (task == "diffusion") {
    DiffusionTaskOptions options;
    Result<double> fraction =
        flags.GetDouble("seed-fraction", options.seed_fraction);
    INF2VEC_RETURN_IF_ERROR(fraction.status());
    options.seed_fraction = fraction.value();
    Rng rng(1);
    metrics = EvaluateDiffusion(predictor, graph.num_users(), log, options,
                                rng);
  } else {
    return Status::InvalidArgument("--task must be activation or diffusion");
  }
  if (g_active_report != nullptr) {
    g_active_report->SetConfig("task", task);
    g_active_report->SetConfig("aggregation",
                               flags.GetString("aggregation", "Ave"));
    g_active_report->AddPhase("eval", SecondsSince(eval_start));
    g_active_report->SetSection("eval", EvalSection(task, metrics));
  }
  ResultTable table(task + " evaluation");
  table.AddRow("model", metrics);
  table.Print();
  std::printf("episodes evaluated: %zu\n", metrics.num_queries);
  return Status::OK();
}

Status RunExportText(const FlagParser& flags) {
  Result<EmbeddingStore> store =
      LoadEmbeddings(flags.GetString("model", ""));
  INF2VEC_RETURN_IF_ERROR(store.status());
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Status::InvalidArgument("--out is required");
  INF2VEC_RETURN_IF_ERROR(ExportEmbeddingsText(store.value(), out));
  INF2VEC_LOG(Info) << "exported " << store.value().num_users() << " x "
                    << store.value().dim() << " embeddings -> " << out;
  return Status::OK();
}

Status RunQuantize(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Status::InvalidArgument("--model is required");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) return Status::InvalidArgument("--out is required");

  const auto start = std::chrono::steady_clock::now();
  Result<ModelArtifact> artifact = LoadModelArtifact(model_path);
  INF2VEC_RETURN_IF_ERROR(artifact.status());
  const EmbeddingStore& store = artifact.value().store;
  const QuantizedEmbeddingStore quantized =
      QuantizedEmbeddingStore::FromStore(store);
  INF2VEC_RETURN_IF_ERROR(SaveModelArtifact(store, artifact.value().metadata,
                                            out, &quantized));

  const size_t fp64_bytes =
      sizeof(double) * (2 * static_cast<size_t>(store.num_users()) *
                            store.dim() +
                        2 * static_cast<size_t>(store.num_users()));
  INF2VEC_LOG(Info) << "quantized " << store.num_users() << " x "
                    << store.dim() << " model -> " << out << " (fp64 table "
                    << fp64_bytes << " B, int8 table "
                    << quantized.TableBytes() << " B) in "
                    << SecondsSince(start) << "s";
  if (g_active_report != nullptr) {
    g_active_report->AddPhase("quantize", SecondsSince(start));
    obs::JsonValue section = obs::JsonValue::Object();
    section.Set("num_users", store.num_users());
    section.Set("dim", store.dim());
    section.Set("fp64_table_bytes", static_cast<uint64_t>(fp64_bytes));
    section.Set("int8_table_bytes",
                static_cast<uint64_t>(quantized.TableBytes()));
    g_active_report->SetSection("quantize", std::move(section));
  }
  return Status::OK();
}

Status RunShardSplit(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Status::InvalidArgument("--model is required");
  const std::string out_dir = flags.GetString("out-dir", "");
  if (out_dir.empty()) return Status::InvalidArgument("--out-dir is required");
  Result<int64_t> shards = flags.GetInt("shards", 0);
  INF2VEC_RETURN_IF_ERROR(shards.status());
  if (shards.value() <= 0 || shards.value() > 4096) {
    return Status::InvalidArgument("--shards must be in [1, 4096]");
  }

  const auto start = std::chrono::steady_clock::now();
  Result<std::vector<std::string>> paths = shard::SplitModelArtifact(
      model_path, out_dir, static_cast<uint32_t>(shards.value()));
  INF2VEC_RETURN_IF_ERROR(paths.status());
  for (const std::string& path : paths.value()) {
    INF2VEC_LOG(Info) << "wrote shard " << path;
  }
  INF2VEC_LOG(Info) << "split " << model_path << " into "
                    << paths.value().size() << " shard artifacts in "
                    << SecondsSince(start) << "s";
  if (g_active_report != nullptr) {
    g_active_report->SetConfig("shards", shards.value());
    g_active_report->AddPhase("shard_split", SecondsSince(start));
  }
  return Status::OK();
}

namespace {

/// Set by the signal handler installed in RunServe; checked by its wait
/// loop. A lock-free std::atomic<int> is async-signal-safe AND visible to
/// non-handler threads (RequestServeStop), which sig_atomic_t is not.
std::atomic<int> g_serve_stop{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

void ServeSignalHandler(int /*signum*/) {
  g_serve_stop.store(1, std::memory_order_relaxed);
}

/// Test-only: invoked right after RunServe finishes loading the model.
std::function<void()>& ServeStartupHook() {
  static std::function<void()> hook;
  return hook;
}

/// RAII: handlers must be live for the WHOLE serve lifetime — including
/// the model load, which can take seconds on big tables. A SIGINT landing
/// mid-load used to hit the default handler and kill the process without
/// unwinding; now it just marks the stop flag and RunServe exits cleanly
/// as soon as the load finishes.
class ScopedServeSignalHandlers {
 public:
  ScopedServeSignalHandlers() {
    g_serve_stop = 0;
    std::signal(SIGINT, ServeSignalHandler);
    std::signal(SIGTERM, ServeSignalHandler);
  }
  ~ScopedServeSignalHandlers() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
  }
};

}  // namespace

void RequestServeStop() { g_serve_stop = 1; }

void SetServeStartupHookForTest(std::function<void()> hook) {
  ServeStartupHook() = std::move(hook);
}

namespace {

/// HTTP-plane flags shared by every serving mode (plain, shard,
/// coordinator).
struct ServeHttpFlags {
  uint16_t port = 0;
  int64_t max_seconds = 0;
  uint32_t serve_threads = 4;
  uint32_t max_inflight = 256;
  std::string access_log_path;
  uint64_t slow_trace_us = 0;
  size_t tracez_capacity = 32;
};

Status ParseServeHttpFlags(const FlagParser& flags, ServeHttpFlags* out) {
  Result<int64_t> port = flags.GetInt("port", 0);
  INF2VEC_RETURN_IF_ERROR(port.status());
  if (port.value() < 0 || port.value() > 65535) {
    return Status::InvalidArgument("--port must be in [0, 65535]");
  }
  out->port = static_cast<uint16_t>(port.value());
  Result<int64_t> max_seconds = flags.GetInt("max-seconds", 0);
  INF2VEC_RETURN_IF_ERROR(max_seconds.status());
  out->max_seconds = max_seconds.value();
  Result<int64_t> serve_threads = flags.GetInt("serve-threads", 4);
  INF2VEC_RETURN_IF_ERROR(serve_threads.status());
  if (serve_threads.value() <= 0) {
    return Status::InvalidArgument("--serve-threads must be positive");
  }
  out->serve_threads = static_cast<uint32_t>(serve_threads.value());
  Result<int64_t> max_inflight = flags.GetInt("max-inflight", 256);
  INF2VEC_RETURN_IF_ERROR(max_inflight.status());
  if (max_inflight.value() <= 0) {
    return Status::InvalidArgument("--max-inflight must be positive");
  }
  out->max_inflight = static_cast<uint32_t>(max_inflight.value());
  out->access_log_path = flags.GetString("access-log", "");
  Result<int64_t> slow_trace_us = flags.GetInt("slow-trace-us", 0);
  INF2VEC_RETURN_IF_ERROR(slow_trace_us.status());
  if (slow_trace_us.value() < 0) {
    return Status::InvalidArgument("--slow-trace-us must be >= 0");
  }
  out->slow_trace_us = static_cast<uint64_t>(slow_trace_us.value());
  Result<int64_t> tracez_capacity = flags.GetInt("tracez-capacity", 32);
  INF2VEC_RETURN_IF_ERROR(tracez_capacity.status());
  if (tracez_capacity.value() <= 0) {
    return Status::InvalidArgument("--tracez-capacity must be positive");
  }
  out->tracez_capacity = static_cast<size_t>(tracez_capacity.value());
  return Status::OK();
}

/// --threads, --deadline-us, --aggregation and --quantize: the service
/// options `serve` and `serve --shard` share. Also records the quant mode
/// for /varz.
Status ParseServiceFlags(const FlagParser& flags,
                         serve::ServiceOptions* options) {
  Result<int64_t> threads = flags.GetInt("threads", 1);
  INF2VEC_RETURN_IF_ERROR(threads.status());
  if (threads.value() < 0) {
    return Status::InvalidArgument(
        "--threads must be >= 0 (0 = all hardware threads)");
  }
  options->num_threads = static_cast<uint32_t>(threads.value());
  Result<int64_t> deadline = flags.GetInt("deadline-us", 0);
  INF2VEC_RETURN_IF_ERROR(deadline.status());
  if (deadline.value() < 0) {
    return Status::InvalidArgument("--deadline-us must be >= 0");
  }
  options->default_deadline_us = static_cast<uint64_t>(deadline.value());
  const std::string aggregation_name = flags.GetString("aggregation", "");
  if (!aggregation_name.empty()) {
    Result<Aggregation> aggregation = ParseAggregation(aggregation_name);
    INF2VEC_RETURN_IF_ERROR(aggregation.status());
    options->aggregation = aggregation.value();
  }
  const std::string quant_name = flags.GetString("quantize", "none");
  if (!serve::ParseQuantModeName(quant_name, &options->quantize)) {
    return Status::InvalidArgument("--quantize must be none or int8");
  }
  obs::SetServingQuantMode(serve::QuantModeName(options->quantize));
  return Status::OK();
}

/// Request observability every serve mode runs with: /rpcz and /tracez
/// are always live (one map lookup + a ring write per request); the
/// access log writes only when --access-log names a file. Declared
/// before the mode's backend (the coordinator keeps &rpcz) and the
/// server, so they outlive every in-flight request.
struct ServeObsPlanes {
  explicit ServeObsPlanes(const ServeHttpFlags& http)
      : tracez(http.tracez_capacity, http.tracez_capacity,
               http.slow_trace_us) {}

  obs::RpczRegistry rpcz;
  obs::TracezBuffer tracez;
  obs::AccessLog access_log;
};

/// The lifecycle every serve mode ends in: opens the access log, starts
/// the StatsServer with request observability, the mode's endpoints
/// (`add_endpoints`) and /rpcz + /tracez, prints the "serving on" line
/// the smoke scripts and perfbench parse (`what` fills its parentheses),
/// then blocks until SIGINT/SIGTERM, RequestServeStop() or the
/// --max-seconds cap, and stops the server.
Status ServeUntilStopped(
    const ServeHttpFlags& http, ServeObsPlanes* planes,
    const std::function<void(obs::StatsServer*)>& add_endpoints,
    const std::string& what) {
  if (!http.access_log_path.empty()) {
    INF2VEC_RETURN_IF_ERROR(planes->access_log.Open(http.access_log_path));
    INF2VEC_LOG(Info) << "access log -> " << http.access_log_path;
  }
  obs::RequestObservability request_obs;
  request_obs.rpcz = &planes->rpcz;
  request_obs.tracez = &planes->tracez;
  request_obs.access_log =
      planes->access_log.is_open() ? &planes->access_log : nullptr;

  obs::StatsServerOptions server_options;
  server_options.port = http.port;
  server_options.num_workers = http.serve_threads;
  server_options.max_inflight = http.max_inflight;
  obs::StatsServer server(server_options);
  server.SetRequestObservability(request_obs);
  add_endpoints(&server);
  obs::RegisterRequestObsEndpoints(&server, &planes->rpcz, &planes->tracez);
  INF2VEC_RETURN_IF_ERROR(server.Start());

  // stdout, unbuffered: the smoke scripts grep this line for the port.
  std::printf("serving on http://127.0.0.1:%u (%s)\n", server.port(),
              what.c_str());
  std::fflush(stdout);

  const auto serve_start = std::chrono::steady_clock::now();
  while (g_serve_stop == 0) {
    if (http.max_seconds > 0 &&
        SecondsSince(serve_start) >= static_cast<double>(http.max_seconds)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  INF2VEC_LOG(Info) << "serve loop exited after "
                    << SecondsSince(serve_start) << "s";
  return Status::OK();
}

/// `serve --shard`: serve one shard slice. The query surface is the
/// coordinator-facing /gather + /topk + /score over the shard's local
/// user range, plus /shardz for topology discovery.
Status RunServeShard(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Status::InvalidArgument("--model is required");

  serve::ServiceOptions options;
  INF2VEC_RETURN_IF_ERROR(ParseServiceFlags(flags, &options));
  ServeHttpFlags http;
  INF2VEC_RETURN_IF_ERROR(ParseServeHttpFlags(flags, &http));

  obs::EnableMetrics(true);
  ScopedServeSignalHandlers signal_guard;

  const auto load_start = std::chrono::steady_clock::now();
  Result<shard::ShardService> service = shard::ShardService::Load(
      model_path, std::move(options), &obs::MetricsRegistry::Default());
  INF2VEC_RETURN_IF_ERROR(service.status());
  if (g_serve_stop != 0) {
    INF2VEC_LOG(Info) << "stop requested during shard load; exiting";
    return Status::OK();
  }
  const ShardSliceInfo& info = service.value().info();
  INF2VEC_LOG(Info) << "loaded shard " << info.shard_index << "/"
                    << info.num_shards << " of " << model_path << " (users ["
                    << info.begin_user << "," << info.end_user << ") of "
                    << info.total_users << ", dim "
                    << service.value().service().dim() << ", quantize "
                    << serve::QuantModeName(
                           service.value().service().quant_mode())
                    << ") in " << SecondsSince(load_start) << "s";

  ServeObsPlanes planes(http);
  return ServeUntilStopped(
      http, &planes,
      [&service](obs::StatsServer* server) {
        shard::RegisterShardEndpoints(server, &service.value());
      },
      StrFormat("shard %u/%u users [%u,%u) /gather /topk /score /shardz "
                "/modelz /metrics /healthz",
                info.shard_index, info.num_shards, info.begin_user,
                info.end_user));
}

/// `serve --coordinator`: the scatter-gather front-end. Connects to every
/// --backends shard at startup, then serves merged /topk and routed
/// /score in the global id space.
Status RunServeCoordinator(const FlagParser& flags) {
  const std::string backends_raw = flags.GetString("backends", "");
  shard::CoordinatorOptions options;
  for (std::string_view field : SplitString(backends_raw, ',')) {
    const std::string address(TrimString(field));
    if (!address.empty()) options.backends.push_back(address);
  }
  if (options.backends.empty()) {
    return Status::InvalidArgument(
        "--coordinator requires --backends host:port[,host:port...]");
  }
  Result<int64_t> shard_deadline = flags.GetInt("shard-deadline-ms", 250);
  INF2VEC_RETURN_IF_ERROR(shard_deadline.status());
  if (shard_deadline.value() <= 0) {
    return Status::InvalidArgument("--shard-deadline-ms must be positive");
  }
  options.shard_deadline_ms = static_cast<uint64_t>(shard_deadline.value());
  Result<int64_t> connect_deadline = flags.GetInt("connect-deadline-ms", 2000);
  INF2VEC_RETURN_IF_ERROR(connect_deadline.status());
  if (connect_deadline.value() <= 0) {
    return Status::InvalidArgument("--connect-deadline-ms must be positive");
  }
  options.connect_deadline_ms =
      static_cast<uint64_t>(connect_deadline.value());
  ServeHttpFlags http;
  INF2VEC_RETURN_IF_ERROR(ParseServeHttpFlags(flags, &http));

  obs::EnableMetrics(true);
  ScopedServeSignalHandlers signal_guard;

  ServeObsPlanes planes(http);
  options.rpcz = &planes.rpcz;
  options.registry = &obs::MetricsRegistry::Default();

  const auto connect_start = std::chrono::steady_clock::now();
  Result<shard::ShardCoordinator> coordinator =
      shard::ShardCoordinator::Connect(std::move(options));
  INF2VEC_RETURN_IF_ERROR(coordinator.status());
  INF2VEC_LOG(Info) << "connected to " << coordinator.value().num_shards()
                    << " shard backends (" << coordinator.value().total_users()
                    << " users, dim " << coordinator.value().dim()
                    << ", quantize "
                    << serve::QuantModeName(coordinator.value().mode())
                    << ", model " << coordinator.value().model_hash()
                    << ") in " << SecondsSince(connect_start) << "s";

  return ServeUntilStopped(
      http, &planes,
      [&coordinator](obs::StatsServer* server) {
        shard::RegisterCoordinatorEndpoints(server, &coordinator.value());
      },
      StrFormat("coordinator over %u shards /topk /score /shardz /metrics "
                "/healthz /rpcz /tracez",
                coordinator.value().num_shards()));
}

}  // namespace

Status RunServe(const FlagParser& flags) {
  if (flags.GetBool("shard", false)) return RunServeShard(flags);
  if (flags.GetBool("coordinator", false)) return RunServeCoordinator(flags);
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) return Status::InvalidArgument("--model is required");

  serve::ServiceOptions options;
  Result<int64_t> cache = flags.GetInt("topk-cache", 256);
  INF2VEC_RETURN_IF_ERROR(cache.status());
  if (cache.value() < 0) {
    return Status::InvalidArgument("--topk-cache must be >= 0 (0 disables)");
  }
  options.seed_cache_capacity = static_cast<uint32_t>(cache.value());
  INF2VEC_RETURN_IF_ERROR(ParseServiceFlags(flags, &options));
  ServeHttpFlags http;
  INF2VEC_RETURN_IF_ERROR(ParseServeHttpFlags(flags, &http));
  const bool watch_model = flags.GetBool("watch-model", false);
  Result<int64_t> watch_interval =
      flags.GetInt("watch-interval-ms", 500);
  INF2VEC_RETURN_IF_ERROR(watch_interval.status());
  if (watch_interval.value() <= 0) {
    return Status::InvalidArgument("--watch-interval-ms must be positive");
  }
  Result<int64_t> mem_budget = flags.GetInt("mem-budget-bytes", 0);
  INF2VEC_RETURN_IF_ERROR(mem_budget.status());
  if (mem_budget.value() < 0) {
    return Status::InvalidArgument(
        "--mem-budget-bytes must be >= 0 (0 = unlimited)");
  }
  Result<int64_t> mem_headroom = flags.GetInt("mem-headroom-bytes", 0);
  INF2VEC_RETURN_IF_ERROR(mem_headroom.status());
  if (mem_headroom.value() < 0) {
    return Status::InvalidArgument("--mem-headroom-bytes must be >= 0");
  }
  {
    // Soft serving budget: /score and /topk shed with 503 while accounted
    // bytes + headroom sit over the budget, and hot-swaps preflight the
    // double-resident peak against it. Set (or cleared) before the load
    // so a model too large for the budget sheds from the first request.
    obs::MemoryBudget budget;
    budget.budget_bytes = static_cast<uint64_t>(mem_budget.value());
    budget.headroom_bytes = static_cast<uint64_t>(mem_headroom.value());
    obs::SetMemoryBudget(budget);
  }

  // Serving is the one command whose metrics matter even without
  // --metrics-out: the serve counters/histograms back /metrics.
  obs::EnableMetrics(true);

  // Stop signals are catchable from here on — before the load, so a
  // SIGINT racing a slow model load exits cleanly instead of killing the
  // process via the default handler.
  ScopedServeSignalHandlers signal_guard;

  const auto load_start = std::chrono::steady_clock::now();
  serve::ModelSwapper swapper(model_path, std::move(options));
  const Status initial_load = swapper.Reload();
  if (ServeStartupHook()) ServeStartupHook()();
  INF2VEC_RETURN_IF_ERROR(initial_load);
  if (g_serve_stop != 0) {
    INF2VEC_LOG(Info) << "stop requested during model load; exiting";
    return Status::OK();
  }
  {
    const auto model = swapper.Acquire();
    INF2VEC_LOG(Info) << "loaded + warmed " << model_path << " ("
                      << model->service.num_users() << " users, dim "
                      << model->service.dim() << ", aggregation "
                      << AggregationName(
                             model->service.default_aggregation())
                      << ", quantize "
                      << serve::QuantModeName(model->service.quant_mode())
                      << ", kernel "
                      << kernels::IsaName(kernels::ActiveIsa()) << ") in "
                      << SecondsSince(load_start) << "s";
  }

  ServeObsPlanes planes(http);
  return ServeUntilStopped(
      http, &planes,
      [&](obs::StatsServer* server) {
        serve::RegisterServeEndpoints(server, &swapper);
        obs::RegisterProfilerEndpoint(server, &obs::CpuProfiler::Default());
        if (watch_model) {
          swapper.StartWatching(static_cast<uint64_t>(watch_interval.value()));
          INF2VEC_LOG(Info) << "watching " << model_path
                            << " for changes every " << watch_interval.value()
                            << "ms";
        }
      },
      "/score /topk /modelz /reloadz /metrics /healthz /rpcz /tracez "
      "/pprofz /memz /heapz");
}

std::string UsageText() {
  return
      "inf2vec_cli <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate     synthesize a digg/flickr-like dataset to TSV files\n"
      "               --profile digg|flickr --out DIR [--users N --items N"
      " --seed S]\n"
      "  train        train Inf2vec on TSV inputs, save a binary model\n"
      "               --graph F --actions F --model OUT [--dim --alpha"
      " --length --epochs --lr --negatives --seed --threads --local-only"
      " --bfs-context]\n"
      "               --threads N: parallel (Hogwild) training; 1 = serial"
      " (default), 0 = all cores\n"
      "               --progress: per-epoch status lines (objective,"
      " pairs/s, ETA) on stderr\n"
      "               --eval-task activation|diffusion: evaluate the fresh"
      " model in the same run\n"
      "               --checkpoint-dir D: durable per-epoch checkpoints"
      " [--checkpoint-every 1 --keep-last 3]\n"
      "               --resume: continue from the latest checkpoint in"
      " --checkpoint-dir (only --epochs may change)\n"
      "  update       incrementally train a saved model on delta episodes\n"
      "               --model IN --graph F --delta F --out OUT [--epochs 3"
      " --lr-scale 0.2 --seed 1 --threads 1]\n"
      "  score        print x(u -> v)\n"
      "               --model F --source U --target V\n"
      "  top          print the k users most influenced by a user\n"
      "               --model F --source U [--k 10]\n"
      "  evaluate     run a paper evaluation task against a model\n"
      "               --graph F --actions F --model F [--task"
      " activation|diffusion --aggregation Ave|Sum|Max|Latest]\n"
      "  export-text  dump a model to a text matrix\n"
      "               --model F --out F\n"
      "  quantize     append an int8 serving section to a model artifact\n"
      "               --model IN --out OUT (per-row symmetric int8 codes +\n"
      "               fp32 scales/biases; `serve --quantize int8` loads it\n"
      "               instead of re-quantizing at startup)\n"
      "  shard-split  range-partition a model artifact into N shard\n"
      "               artifacts, each stamped with an I2VSHRD1 identity\n"
      "               section (shard index, user range, whole-model\n"
      "               content hash; rejected at load on mismatch)\n"
      "               --model IN --out-dir D --shards N\n"
      "  serve        online influence-query server over a saved model:\n"
      "               /score /topk /modelz /reloadz plus the stats +\n"
      "               observability endpoints (/rpcz /tracez /pprofz)\n"
      "               --model F [--port 0 --topk-cache 256 --threads 1\n"
      "                --deadline-us 0 --aggregation Ave|Sum|Max|Latest\n"
      "                --max-seconds 0 --watch-model"
      " --watch-interval-ms 500\n"
      "                --quantize none|int8 --access-log F"
      " --slow-trace-us 0\n"
      "                --tracez-capacity 32 --mem-budget-bytes 0\n"
      "                --mem-headroom-bytes 0 --serve-threads 4\n"
      "                --max-inflight 256]\n"
      "               --serve-threads N: HTTP worker threads running the\n"
      "               handlers (the epoll event loop itself is one more)\n"
      "               --max-inflight N: bounded admission — requests over\n"
      "               N queued+executing shed with 429 OVERLOADED\n"
      "               --mem-budget-bytes N: soft serving budget; /score\n"
      "               and /topk answer 503 while accounted bytes (+ the\n"
      "               --mem-headroom-bytes slack) exceed N, and /reloadz\n"
      "               refuses swaps whose double-resident peak would blow\n"
      "               the budget (0 = unlimited; see GET /memz)\n"
      "               --access-log F: one wide JSONL event per request\n"
      "               (id, endpoint, status, per-phase micros)\n"
      "               --slow-trace-us N: /tracez slow buffer only keeps\n"
      "               requests at or above N microseconds (0 = rank all)\n"
      "               --quantize int8 serves from the int8 table (8x\n"
      "               smaller scans; uses the artifact's quantized section\n"
      "               when present, else quantizes at load)\n"
      "               --port 0 picks a free port (printed on stdout);\n"
      "               --max-seconds bounds the run, 0 = until SIGINT\n"
      "               --watch-model hot-swaps the model when the file on\n"
      "               disk changes (zero downtime; also via GET /reloadz)\n"
      "               --shard: serve one shard-split slice; answers\n"
      "               /gather /topk /score over its local user range plus\n"
      "               /shardz (plain serve refuses shard artifacts)\n"
      "               --coordinator --backends host:port,...: scatter-\n"
      "               gather front-end; fans /topk to every shard, merges\n"
      "               rankings bit-identically to a single node, answers\n"
      "               206 + degraded:true + shards_missing when a shard\n"
      "               misses its --shard-deadline-ms (default 250) or is\n"
      "               down (see docs/SHARDING.md)\n"
      "\n"
      "global flags (any command):\n"
      "  --kernel scalar|avx2|auto   pin the SIMD kernel backend (default:\n"
      "                    best supported by this CPU; scalar is the\n"
      "                    bit-exact reference path)\n"
      "  --log-level debug|info|warning|error   log threshold (default"
      " info)\n"
      "  --metrics-out F   write a structured JSON run report\n"
      "  --trace-out F     write a chrome://tracing / Perfetto trace\n"
      "  --profile-out F   sample the whole run with the SIGPROF CPU\n"
      "                    profiler, write folded stacks (flamegraph.pl /\n"
      "                    speedscope input) to F on exit\n"
      "  --heap-profile-out F   sample allocations for the whole run\n"
      "                    (operator new interposition), write folded\n"
      "                    stacks weighted by live bytes to F on exit;\n"
      "                    --heap-profile-period N sets the sampling\n"
      "                    period in bytes (default 524288)\n"
      "  --serve-port P    embedded stats server on 127.0.0.1:P for the\n"
      "                    run: /metrics (Prometheus), /statusz, /varz,\n"
      "                    /healthz; 0 = kernel-picked port\n"
      "  --metrics-snapshot-out F           append periodic registry\n"
      "                    snapshots as JSONL time series\n"
      "  --metrics-snapshot-interval-ms N   snapshot spacing (default"
      " 1000)\n";
}

Status Dispatch(const FlagParser& flags) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument("missing command\n" + UsageText());
  }
  const std::string& command = flags.positional()[0];
  Status (*run)(const FlagParser&) = nullptr;
  if (command == "generate") run = RunGenerate;
  if (command == "train") run = RunTrain;
  if (command == "update") run = RunUpdate;
  if (command == "score") run = RunScore;
  if (command == "top") run = RunTop;
  if (command == "evaluate") run = RunEvaluate;
  if (command == "export-text") run = RunExportText;
  if (command == "quantize") run = RunQuantize;
  if (command == "shard-split") run = RunShardSplit;
  if (command == "serve") run = RunServe;
  if (run == nullptr) {
    return Status::InvalidArgument("unknown command '" + command + "'\n" +
                                   UsageText());
  }

  INF2VEC_RETURN_IF_ERROR(SetupObservability(flags));
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_out = flags.GetString("trace-out", "");
  obs::RunStatus::Default().StartCommand(command);

  // Live telemetry plane: --serve-port exposes /metrics, /statusz, /varz
  // and /healthz for the lifetime of the command (port 0 = kernel-picked).
  std::unique_ptr<obs::StatsServer> server;
  if (flags.Has("serve-port")) {
    Result<int64_t> port = flags.GetInt("serve-port", 0);
    INF2VEC_RETURN_IF_ERROR(port.status());
    if (port.value() < 0 || port.value() > 65535) {
      return Status::InvalidArgument("--serve-port must be in [0, 65535]");
    }
    obs::StatsServerOptions options;
    options.port = static_cast<uint16_t>(port.value());
    server = std::make_unique<obs::StatsServer>(options);
    obs::RegisterProfilerEndpoint(server.get(), &obs::CpuProfiler::Default());
    INF2VEC_RETURN_IF_ERROR(server->Start());
    INF2VEC_LOG(Info) << "stats server on http://127.0.0.1:"
                      << server->port()
                      << " (/metrics /statusz /varz /healthz /pprofz /memz"
                      << " /heapz)";
  }

  // Periodic metrics time series: one JSONL line per interval.
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter;
  const std::string snapshot_out = flags.GetString("metrics-snapshot-out", "");
  if (!snapshot_out.empty()) {
    Result<int64_t> interval =
        flags.GetInt("metrics-snapshot-interval-ms", 1000);
    INF2VEC_RETURN_IF_ERROR(interval.status());
    if (interval.value() <= 0) {
      return Status::InvalidArgument(
          "--metrics-snapshot-interval-ms must be positive");
    }
    obs::SnapshotterOptions options;
    options.path = snapshot_out;
    options.interval_ms = static_cast<uint32_t>(interval.value());
    snapshotter = std::make_unique<obs::MetricsSnapshotter>(options);
    INF2VEC_RETURN_IF_ERROR(snapshotter->Start());
  }

  obs::RunReport report(command);
  if (!metrics_out.empty()) g_active_report = &report;
  Status status;
  {
    obs::TraceSpan span(command, "cli");
    status = run(flags);
  }
  g_active_report = nullptr;
  obs::RunStatus::Default().SetPhase(status.ok() ? "done" : "failed");

  if (snapshotter != nullptr) {
    snapshotter->Stop();  // Final snapshot line + deterministic join.
    INF2VEC_LOG(Info) << "wrote " << snapshotter->lines_written()
                      << " metric snapshots -> " << snapshot_out;
  }
  if (server != nullptr) server->Stop();

  // Disarm the whole-run profiler BEFORE writing reports so its own
  // serialization work never shows up in the profile, then persist the
  // folded stacks and describe the session in the run report.
  const std::string profile_out = flags.GetString("profile-out", "");
  if (!profile_out.empty()) {
    obs::CpuProfiler& profiler = obs::CpuProfiler::Default();
    INF2VEC_RETURN_IF_ERROR(profiler.Stop());
    obs::JsonValue profile = profiler.DescribeJson();
    profile.Set("path", profile_out);
    report.SetSection("profile", std::move(profile));
    if (status.ok()) {
      INF2VEC_RETURN_IF_ERROR(profiler.WriteFolded(profile_out));
      INF2VEC_LOG(Info) << "wrote cpu profile (" << profiler.sample_count()
                        << " samples) -> " << profile_out;
    }
  }
  const std::string heap_profile_out = flags.GetString("heap-profile-out", "");
  if (!heap_profile_out.empty()) {
    obs::HeapProfiler& heap = obs::HeapProfiler::Default();
    INF2VEC_RETURN_IF_ERROR(heap.Stop());
    obs::JsonValue profile = heap.DescribeJson();
    profile.Set("path", heap_profile_out);
    report.SetSection("heap_profile", std::move(profile));
    if (status.ok()) {
      INF2VEC_RETURN_IF_ERROR(heap.WriteFolded(heap_profile_out));
      INF2VEC_LOG(Info) << "wrote heap profile (" << heap.total_samples()
                        << " samples, " << heap.sampled_live_bytes()
                        << " live sampled bytes) -> " << heap_profile_out;
    }
  }

  if (status.ok() && !metrics_out.empty()) {
    report.SetSection("environment", obs::EnvironmentJson());
    report.SetSection("memory", obs::MemoryReportJson());
    report.FinalizeFromRegistry(obs::MetricsRegistry::Default());
    INF2VEC_RETURN_IF_ERROR(report.WriteJson(metrics_out));
    INF2VEC_LOG(Info) << "wrote run report -> " << metrics_out;
  }
  if (status.ok() && !trace_out.empty()) {
    INF2VEC_RETURN_IF_ERROR(
        obs::TraceCollector::Default().WriteChromeTrace(trace_out));
    INF2VEC_LOG(Info) << "wrote trace ("
                      << obs::TraceCollector::Default().size()
                      << " spans) -> " << trace_out;
  }
  return status;
}

}  // namespace cli
}  // namespace inf2vec
