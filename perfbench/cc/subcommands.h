// The perfbench binary's subcommands. run.py drives them as separate
// processes so input preparation, the system under test and the load
// generator never share an address space (peak RSS and CPU time then
// belong to the system side alone).
#ifndef PERFBENCH_SUBCOMMANDS_H_
#define PERFBENCH_SUBCOMMANDS_H_

#include <string>

#include "bench_util.h"
#include "core/inf2vec_model.h"
#include "util/flags.h"
#include "util/status.h"

namespace perfbench {

/// `train`: TSV set-up, then corpus + SGD + save (train_s), then the
/// reload check, train_auc and in-process activation queries.
inf2vec::Status RunTrain(const inf2vec::FlagParser& flags);

/// `loadgen`: the open-loop then closed-loop HTTP load generator.
inf2vec::Status RunLoadgen(const inf2vec::FlagParser& flags);

// The training pipeline `inf2vec_cli train` runs, split so each layer call
// gets its own span under `parent`.

/// BuildInfluenceCorpus on a kTrainThreads ThreadPool (span core.corpus).
inf2vec::InfluenceCorpus BuildBenchCorpus(const inf2vec::SocialGraph& graph,
                                          const inf2vec::ActionLog& train_log,
                                          const inf2vec::Inf2vecConfig& config,
                                          SpanLog* spans, uint64_t parent);

/// Inf2vecModel::TrainFromCorpus (span embedding.sgd). `cpu_seconds`, when
/// non-null, receives the process CPU time the call consumed.
inf2vec::Result<inf2vec::Inf2vecModel> TrainBenchModel(
    const inf2vec::InfluenceCorpus& corpus, uint32_t num_users,
    const inf2vec::Inf2vecConfig& config, SpanLog* spans, uint64_t parent,
    double* cpu_seconds);

/// SaveModelArtifact with the CLI's metadata (span embedding.save).
inf2vec::Status SaveBenchModel(const inf2vec::Inf2vecModel& model,
                               const std::string& path, SpanLog* spans,
                               uint64_t parent);

}  // namespace perfbench

#endif  // PERFBENCH_SUBCOMMANDS_H_
