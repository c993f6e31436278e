#ifndef LTEE_PIPELINE_TRAINING_H_
#define LTEE_PIPELINE_TRAINING_H_

#include <vector>

#include "eval/gold_standard.h"
#include "pipeline/pipeline.h"
#include "util/random.h"
#include "webtable/web_table.h"

namespace ltee::pipeline {

/// The part of the gold standard the components learn from. The default,
/// empty split is the whole gold standard.
struct GoldSplit {
  /// Learning gold-cluster indices per class, parallel to the gold
  /// standards. Empty: every cluster of every class.
  std::vector<std::vector<int>> learning_clusters;
  /// Tables the schema matchers learn from. Read only when
  /// `learning_clusters` is set; the empty split learns from every gold
  /// table.
  std::vector<webtable::TableId> learning_tables;
};

/// The gold artifacts the trainer built, for callers that evaluate on them.
struct GoldTraining {
  /// Gold schema mapping of every class, merged over the GS corpus.
  matching::SchemaMapping gold_mapping;
  /// Per class, parallel to the gold standards: the class row set under
  /// `gold_mapping`, and its learning-cluster index per row (-1 for rows
  /// of other clusters or unannotated rows) that trained the clusterer.
  std::vector<rowcluster::ClassRowSet> gold_rows;
  std::vector<std::vector<int>> learning_assignment;
};

/// Trains every learned component of `pipeline` on the `split` part of the
/// gold standard: per class the row clusterer and then the new detector
/// (on gold-cluster entities), then the first schema matcher, and the
/// refined matcher against a real first-iteration run's feedback. `rng` is
/// drawn in that order. The Section 5 profiling run, the CLI and the
/// benchmarks train on the whole gold standard; GoldExperiment trains each
/// cross-validation fold on its learning split (Section 2.3).
GoldTraining TrainPipelineOnGold(LteePipeline* pipeline,
                                 const webtable::TableCorpus& gs_corpus,
                                 const std::vector<eval::GoldStandard>& gold,
                                 util::Rng& rng, const GoldSplit& split = {});

}  // namespace ltee::pipeline

#endif  // LTEE_PIPELINE_TRAINING_H_
