// perfbench: the repository benchmark's binary. run.py runs its
// subcommands as separate processes:
//
//   prepare  --workload W --seed S --dir D   inputs (untimed)
//   prepare  ... --train-only                 one more served-model training
//   train    --dir D --seed S ...            train workload, system side
//   loadgen  --port P --kind K ...           topk/score, load generator
//   check    --kind K --dir D ...            answer checks on saved answers
//
// The system side of `topk` and `score` is the real `inf2vec_cli serve`,
// which run.py starts itself.
#include <cstdio>
#include <filesystem>
#include <string>

#include "action/action_log_io.h"
#include "checks.h"
#include "embedding/model_io.h"
#include "eval/activation_task.h"
#include "graph/graph_io.h"
#include "obs/json.h"
#include "serve/influence_service.h"
#include "subcommands.h"
#include "util/io.h"
#include "util/string_util.h"
#include "workload_inputs.h"

namespace perfbench {
namespace {

using inf2vec::Result;
using inf2vec::Status;
using inf2vec::obs::JsonValue;

/// Served models are trained for one epoch: the table needs learned
/// structure, not convergence.
constexpr uint32_t kServedEpochs = 1;
/// Request lines written per serving workload; the load generator cycles
/// through them.
constexpr size_t kTopKRequests = 20000;
constexpr size_t kScoreRequests = 200000;

/// `quantize`: reload the fp64 artifact and re-save it with the int8
/// section, as `inf2vec_cli quantize` does.
Status Quantize(const std::string& in, const std::string& out) {
  Result<inf2vec::ModelArtifact> artifact = inf2vec::LoadModelArtifact(in);
  INF2VEC_RETURN_IF_ERROR(artifact.status());
  const inf2vec::QuantizedEmbeddingStore quantized =
      inf2vec::QuantizedEmbeddingStore::FromStore(artifact.value().store);
  return inf2vec::SaveModelArtifact(artifact.value().store,
                                    artifact.value().metadata, out,
                                    &quantized);
}

Status RunPrepare(const inf2vec::FlagParser& flags) {
  const std::string workload = flags.GetString("workload", "");
  const std::string dir = flags.GetString("dir", "");
  Result<int64_t> seed_flag = flags.GetInt("seed", 1);
  INF2VEC_RETURN_IF_ERROR(seed_flag.status());
  if (dir.empty()) return Status::InvalidArgument("--dir is required");
  if (workload != "train" && workload != "topk" && workload != "score") {
    return Status::InvalidArgument("--workload must be train, topk or score");
  }
  const uint64_t seed = static_cast<uint64_t>(seed_flag.value());
  const bool train_only = flags.GetBool("train-only", false);
  if (train_only && workload == "train") {
    return Status::InvalidArgument("--train-only is for topk and score");
  }
  Result<inf2vec::synth::World> world = GenerateBenchWorld(seed);
  INF2VEC_RETURN_IF_ERROR(world.status());
  const inf2vec::SocialGraph& graph = world.value().graph;
  const inf2vec::ActionLog& log = world.value().log;

  JsonValue info = JsonValue::Object();
  info.Set("users", graph.num_users());
  info.Set("edges", graph.num_edges());
  info.Set("episodes", static_cast<uint64_t>(log.num_episodes()));
  info.Set("adoptions", log.num_actions());
  if (workload == "train") {
    INF2VEC_RETURN_IF_ERROR(inf2vec::SaveEdgeList(graph, dir + "/graph.tsv"));
    INF2VEC_RETURN_IF_ERROR(
        inf2vec::SaveActionLog(log, dir + "/actions.tsv"));
    PrintResult(info);
    return Status::OK();
  }

  // The served model(s): trained from the training split, 4 Hogwild
  // threads. `score` alternates between two models, so it gets a second
  // one trained from the same corpus with another SGD seed. With
  // --train-only the served model's training runs again, only to be
  // timed: run.py spreads such repeats over the run and reports the
  // median as train_s.
  const inf2vec::LogSplit split = SplitBenchLog(log, seed);
  const inf2vec::Inf2vecConfig config = BenchTrainConfig(seed, kServedEpochs);
  SpanLog spans;
  const uint64_t train = spans.Begin("train");
  const inf2vec::InfluenceCorpus corpus =
      BuildBenchCorpus(graph, split.train, config, &spans, train);
  Result<inf2vec::Inf2vecModel> model = TrainBenchModel(
      corpus, graph.num_users(), config, &spans, train, nullptr);
  INF2VEC_RETURN_IF_ERROR(model.status());
  const std::string fp64_path =
      dir + (train_only ? "/retrain_fp64.bin" : "/model_fp64.bin");
  INF2VEC_RETURN_IF_ERROR(
      SaveBenchModel(model.value(), fp64_path, &spans, train));
  info.Set("train_s", spans.End(train));
  if (train_only) {
    std::filesystem::remove(fp64_path);
    PrintResult(info);
    return Status::OK();
  }
  info.Set("train_auc", inf2vec::EvaluateActivation(model.value().Predictor(),
                                                    graph, split.test)
                            .auc);

  std::vector<std::string> lines;
  if (workload == "topk") {
    std::filesystem::rename(fp64_path, dir + "/model_a.bin");
    for (const auto& seeds : TopKSeedSets(log, seed, kTopKRequests)) {
      lines.push_back(JoinIds(seeds));
    }
  } else {
    INF2VEC_RETURN_IF_ERROR(Quantize(fp64_path, dir + "/model_a.bin"));
    inf2vec::Inf2vecConfig config_b = config;
    config_b.seed = seed + 1;
    Result<inf2vec::Inf2vecModel> model_b = TrainBenchModel(
        corpus, graph.num_users(), config_b, &spans, 0, nullptr);
    INF2VEC_RETURN_IF_ERROR(model_b.status());
    INF2VEC_RETURN_IF_ERROR(SaveBenchModel(model_b.value(), fp64_path, &spans, 0));
    INF2VEC_RETURN_IF_ERROR(Quantize(fp64_path, dir + "/model_b.bin"));
    std::filesystem::remove(fp64_path);
    for (const inf2vec::ActivationCase& c :
         ScoreCases(graph, log, seed, kScoreRequests)) {
      lines.push_back(std::to_string(c.candidate) + "\t" +
                      JoinIds(c.influencers) + "\t" +
                      (c.activated ? "1" : "0"));
    }
  }
  INF2VEC_RETURN_IF_ERROR(inf2vec::WriteLines(dir + "/requests.tsv", lines));
  PrintResult(info);
  return Status::OK();
}

/// The answer of one sampled response, read back from its JSON body.
struct Answer {
  uint64_t generation = 0;
  double score = 0.0;  // /score
  std::vector<inf2vec::serve::TopKEntry> entries;  // /topk
};

Result<Answer> ParseAnswer(const std::string& kind, const std::string& text) {
  Result<JsonValue> parsed = inf2vec::obs::ParseJson(text);
  INF2VEC_RETURN_IF_ERROR(parsed.status());
  const JsonValue& body = parsed.value();
  Answer answer;
  if (const JsonValue* g = body.Find("generation")) {
    answer.generation = static_cast<uint64_t>(g->AsInt());
  }
  const JsonValue* results = body.Find("results");
  if (kind == "topk" || results != nullptr) {
    if (results == nullptr) return Status::Internal("answer has no results");
    for (const JsonValue& row : results->items()) {
      const JsonValue* user = row.Find(kind == "topk" ? "user" : "candidate");
      const JsonValue* score = row.Find("score");
      if (user == nullptr || score == nullptr) {
        return Status::Internal("malformed result row");
      }
      answer.entries.push_back({static_cast<inf2vec::UserId>(user->AsInt()),
                                score->AsDouble()});
    }
    if (kind == "score") {
      if (answer.entries.size() != 1) return Status::Internal("batch size");
      answer.score = answer.entries[0].score;
    }
    return answer;
  }
  const JsonValue* score = body.Find("score");
  if (score == nullptr) return Status::Internal("answer has no score");
  answer.score = score->AsDouble();
  return answer;
}

/// Splits a tab-separated line.
std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  for (std::string_view field : inf2vec::SplitString(line, '\t')) {
    out.emplace_back(field);
  }
  return out;
}

Result<uint64_t> ToU64(const std::string& text) {
  int64_t value = 0;
  INF2VEC_RETURN_IF_ERROR(inf2vec::ParseInt64(text, &value));
  return static_cast<uint64_t>(value);
}

/// The traced run's in-process arm: the first `count` requests sent
/// straight to InfluenceService::TopK / ScoreActivation, no HTTP. Returns
/// the mean microseconds per call.
Result<double> DirectCalls(const inf2vec::serve::InfluenceService& service,
                           const std::string& kind,
                           const std::vector<std::string>& requests,
                           size_t count) {
  uint64_t total_ns = 0;
  size_t calls = 0;
  for (; calls < requests.size() && calls < count; ++calls) {
    const std::vector<std::string> request = Fields(requests[calls]);
    if (kind == "topk") {
      inf2vec::serve::TopKRequest query;
      Result<std::vector<uint32_t>> seeds = ParseIds(request[0]);
      INF2VEC_RETURN_IF_ERROR(seeds.status());
      query.seeds = std::move(seeds).value();
      query.k = kTopK;
      const uint64_t start = MonoNs();
      INF2VEC_RETURN_IF_ERROR(service.TopK(query).status());
      total_ns += MonoNs() - start;
    } else {
      inf2vec::serve::ScoreRequest query;
      INF2VEC_RETURN_IF_ERROR(
          inf2vec::ParseUint32(request[0], &query.candidate));
      Result<std::vector<uint32_t>> seeds = ParseIds(request[1]);
      INF2VEC_RETURN_IF_ERROR(seeds.status());
      query.seeds = std::move(seeds).value();
      const uint64_t start = MonoNs();
      INF2VEC_RETURN_IF_ERROR(service.ScoreActivation(query).status());
      total_ns += MonoNs() - start;
    }
  }
  if (calls == 0) return Status::InvalidArgument("no direct requests");
  return static_cast<double>(total_ns) / static_cast<double>(calls) * 1e-3;
}

Status RunCheck(const inf2vec::FlagParser& flags) {
  const std::string kind = flags.GetString("kind", "");
  const std::string dir = flags.GetString("dir", "");
  if (kind != "topk" && kind != "score") {
    return Status::InvalidArgument("--kind must be topk or score");
  }
  INF2VEC_RETURN_IF_ERROR(PinKernel(flags.GetString("kernel", "")));
  Result<int64_t> direct_count = flags.GetInt("direct-count", 0);
  INF2VEC_RETURN_IF_ERROR(direct_count.status());
  std::vector<std::string> requests;
  std::vector<std::string> samples;
  std::vector<std::string> log;
  INF2VEC_RETURN_IF_ERROR(inf2vec::ReadLines(dir + "/requests.tsv", &requests));
  INF2VEC_RETURN_IF_ERROR(inf2vec::ReadLines(dir + "/samples.log", &samples));
  INF2VEC_RETURN_IF_ERROR(inf2vec::ReadLines(dir + "/requests.log", &log));

  // Generation `g` is served from model_a.bin when odd, model_b.bin when
  // even: the first load is generation 1 and each swap alternates.
  std::vector<inf2vec::ModelArtifact> models;
  for (const char* name : {"model_a.bin", "model_b.bin"}) {
    if (!std::filesystem::exists(dir + "/" + name)) break;
    Result<inf2vec::ModelArtifact> artifact =
        inf2vec::LoadModelArtifact(dir + "/" + name);
    INF2VEC_RETURN_IF_ERROR(artifact.status());
    if (kind == "score" && !artifact.value().quantized.has_value()) {
      return Status::FailedPrecondition("score model lacks the int8 section");
    }
    models.push_back(std::move(artifact).value());
  }
  if (models.empty()) return Status::NotFound("no model_a.bin in " + dir);

  uint64_t checked = 0;
  uint64_t wrong = 0;
  std::string first_error;
  const auto record = [&](const Status& status) {
    ++checked;
    if (!status.ok()) {
      ++wrong;
      if (first_error.empty()) first_error = status.message();
    }
  };
  for (const std::string& line : samples) {
    const size_t tab1 = line.find('\t');
    const size_t tab2 = line.find('\t', tab1 + 1);
    uint32_t index = 0;
    INF2VEC_RETURN_IF_ERROR(inf2vec::ParseUint32(
        std::string_view(line).substr(tab1 + 1, tab2 - tab1 - 1), &index));
    if (index >= requests.size()) return Status::OutOfRange("request index");
    Result<Answer> answer = ParseAnswer(kind, line.substr(tab2 + 1));
    if (!answer.ok()) {
      record(answer.status());
      continue;
    }
    const uint64_t generation = answer.value().generation;
    const inf2vec::ModelArtifact& model =
        models[generation % 2 == 1 || models.size() == 1 ? 0 : 1];
    Result<inf2vec::Aggregation> aggregation =
        inf2vec::ParseAggregation(model.metadata.aggregation);
    INF2VEC_RETURN_IF_ERROR(aggregation.status());
    const std::vector<std::string> request = Fields(requests[index]);
    if (kind == "topk") {
      Result<std::vector<uint32_t>> seeds = ParseIds(request[0]);
      INF2VEC_RETURN_IF_ERROR(seeds.status());
      record(CheckTopKAnswer(model.store, aggregation.value(), seeds.value(),
                             kTopK, answer.value().entries));
    } else {
      uint32_t candidate = 0;
      INF2VEC_RETURN_IF_ERROR(inf2vec::ParseUint32(request[0], &candidate));
      Result<std::vector<uint32_t>> seeds = ParseIds(request[1]);
      INF2VEC_RETURN_IF_ERROR(seeds.status());
      record(CheckQuantizedScore(*model.quantized, aggregation.value(),
                                 candidate, seeds.value(),
                                 answer.value().score));
    }
  }

  // Generations against the swaps run.py made.
  std::vector<SwapRecord> swaps;
  std::vector<std::string> swap_lines;
  if (std::filesystem::exists(dir + "/swaps.tsv")) {
    INF2VEC_RETURN_IF_ERROR(inf2vec::ReadLines(dir + "/swaps.tsv", &swap_lines));
  }
  for (const std::string& line : swap_lines) {
    const std::vector<std::string> f = Fields(line);
    Result<uint64_t> returned = ToU64(f.at(0));
    Result<uint64_t> generation = ToU64(f.at(1));
    INF2VEC_RETURN_IF_ERROR(returned.status());
    INF2VEC_RETURN_IF_ERROR(generation.status());
    swaps.push_back({returned.value(), generation.value()});
  }
  std::vector<GenerationRecord> answers;
  for (const std::string& line : log) {
    const std::vector<std::string> f = Fields(line);
    if (f.size() < 9 || f[6] != "200") continue;
    Result<uint64_t> sent = ToU64(f[4]);
    Result<uint64_t> generation = ToU64(f[8]);
    INF2VEC_RETURN_IF_ERROR(sent.status());
    INF2VEC_RETURN_IF_ERROR(generation.status());
    answers.push_back({sent.value(), generation.value()});
  }
  const Status generations = CheckGenerations(swaps, answers);

  JsonValue result = JsonValue::Object();
  result.Set("provenance", ProvenanceJson());
  result.Set("checked", checked);
  result.Set("wrong", wrong);
  result.Set("first_error", first_error);
  result.Set("generations", generations.ok() ? "ok" : generations.message());
  result.Set("correct", checked > 0 && wrong == 0 && generations.ok());
  // Bytes a candidate's target row costs the scan: the padded row plus its
  // bias (and, in int8 mode, its scale).
  const inf2vec::ModelArtifact& served = models[0];
  result.Set("target_row_bytes",
             kind == "score"
                 ? static_cast<uint64_t>(served.quantized->row_stride()) +
                       2 * sizeof(float)
                 : sizeof(double) * (served.store.row_stride() + 1));
  if (direct_count.value() > 0) {
    // A service built as `serve` builds it with its defaults.
    inf2vec::serve::ServiceOptions options;
    options.seed_cache_capacity = 256;
    options.num_threads = 1;
    options.quantize = kind == "score" ? inf2vec::serve::QuantMode::kInt8
                                       : inf2vec::serve::QuantMode::kNone;
    Result<inf2vec::serve::InfluenceService> service =
        inf2vec::serve::InfluenceService::FromArtifact(std::move(models[0]),
                                                       std::move(options));
    INF2VEC_RETURN_IF_ERROR(service.status());
    service.value().Warm();
    Result<double> direct_us =
        DirectCalls(service.value(), kind, requests,
                    static_cast<size_t>(direct_count.value()));
    INF2VEC_RETURN_IF_ERROR(direct_us.status());
    result.Set("direct_us", direct_us.value());
  }
  PrintResult(result);
  return Status::OK();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench prepare|train|loadgen|check "
                 "[--flag value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  inf2vec::Result<inf2vec::FlagParser> flags =
      inf2vec::FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  inf2vec::Status status;
  if (command == "prepare") {
    status = perfbench::RunPrepare(flags.value());
  } else if (command == "train") {
    status = perfbench::RunTrain(flags.value());
  } else if (command == "loadgen") {
    status = perfbench::RunLoadgen(flags.value());
  } else if (command == "check") {
    status = perfbench::RunCheck(flags.value());
  } else {
    status = inf2vec::Status::InvalidArgument("unknown subcommand " + command);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
