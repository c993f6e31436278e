#include "pipeline/training.h"

#include <numeric>

#include "pipeline/gold_artifacts.h"
#include "util/logging.h"
#include "util/trace.h"

namespace ltee::pipeline {

GoldTraining TrainPipelineOnGold(LteePipeline* pipeline,
                                 const webtable::TableCorpus& gs_corpus,
                                 const std::vector<eval::GoldStandard>& gold,
                                 util::Rng& rng, const GoldSplit& split) {
  const bool full = split.learning_clusters.empty();
  GoldTraining out;
  out.gold_mapping = GoldSchemaMapping(gs_corpus, gold);

  std::vector<webtable::TableId> learning_tables = split.learning_tables;
  std::vector<matching::AttributeAnnotation> annotations;

  const webtable::PreparedCorpus& prepared = pipeline->Prepared(gs_corpus);
  util::ThreadPool* pool = &pipeline->pool();

  for (size_t ci = 0; ci < gold.size(); ++ci) {
    const eval::GoldStandard& gs = gold[ci];
    std::vector<int> learning_clusters(gs.clusters.size());
    if (full) {
      std::iota(learning_clusters.begin(), learning_clusters.end(), 0);
    } else {
      learning_clusters = split.learning_clusters[ci];
    }
    std::vector<bool> is_learning(gs.clusters.size(), false);
    for (int g : learning_clusters) is_learning[g] = true;

    // Row set of the class under the gold mapping.
    auto rows = rowcluster::BuildClassRowSet(
        prepared, out.gold_mapping, gs.cls, pipeline->knowledge_base(),
        pipeline->kb_index(), pipeline->options().row_features);
    std::vector<int> assignment(rows.rows.size(), -1);
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      const int g = gs.ClusterOfRow(rows.rows[i].ref);
      if (g >= 0 && is_learning[g]) assignment[i] = g;
    }
    {
      util::trace::ScopedSpan span("train.rowcluster");
      span.AddArg("class", static_cast<long long>(gs.cls));
      span.AddArg("rows", rows.rows.size());
      pipeline->clusterer_for(gs.cls).Train(rows, assignment, rng, pool);
    }

    // New detector on gold-cluster entities.
    auto train = GoldClusterEntities(rows, gs, learning_clusters,
                                     out.gold_mapping,
                                     pipeline->MakeEntityCreator(), prepared);
    std::vector<newdetect::DetectionLabel> labels;
    for (int g : train.clusters) {
      labels.push_back({gs.clusters[g].is_new, gs.clusters[g].kb_instance});
    }
    {
      util::trace::ScopedSpan span("train.newdetect");
      span.AddArg("class", static_cast<long long>(gs.cls));
      span.AddArg("entities", train.entities.size());
      pipeline->detector_for(gs.cls).Train(train.entities, labels, rng, pool);
    }

    if (full) {
      learning_tables.insert(learning_tables.end(), gs.tables.begin(),
                             gs.tables.end());
    }
    for (const auto& attr : gs.attributes) {
      annotations.push_back({attr.table, attr.column, attr.property});
    }
    out.gold_rows.push_back(std::move(rows));
    out.learning_assignment.push_back(std::move(assignment));
  }

  {
    util::trace::ScopedSpan span("train.schema_match");
    span.AddArg("iteration", 1);
    pipeline->schema_matcher_first().Learn(prepared, learning_tables,
                                           annotations, {}, rng, pool);
  }
  // Learn the refined matcher against real first-iteration system feedback
  // so its weights match inference-time conditions.
  auto mapping1 = pipeline->schema_matcher_first().Match(prepared);
  std::vector<ClassRunResult> first_pass;
  for (const auto& gs : gold) {
    first_pass.push_back(pipeline->RunClass(gs_corpus, mapping1, gs.cls));
  }
  matching::RowInstanceMap system_instances;
  matching::RowClusterMap system_clusters;
  LteePipeline::CollectFeedback(first_pass, &system_instances,
                                &system_clusters);
  matching::MatcherFeedback feedback;
  feedback.row_instances = &system_instances;
  feedback.row_clusters = &system_clusters;
  feedback.preliminary = &mapping1;
  {
    util::trace::ScopedSpan span("train.schema_match");
    span.AddArg("iteration", 2);
    pipeline->schema_matcher_refined().Learn(prepared, learning_tables,
                                             annotations, feedback, rng, pool);
  }
  if (full) {
    LTEE_LOG(kInfo) << "pipeline trained on full gold standard";
  }
  return out;
}

}  // namespace ltee::pipeline
