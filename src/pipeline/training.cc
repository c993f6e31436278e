#include "pipeline/training.h"

#include "pipeline/gold_artifacts.h"
#include "util/logging.h"
#include "util/trace.h"

namespace ltee::pipeline {

void TrainPipelineOnGold(LteePipeline* pipeline,
                         const webtable::TableCorpus& gs_corpus,
                         const std::vector<eval::GoldStandard>& gold,
                         util::Rng& rng) {
  // Merged gold mapping over the GS corpus.
  matching::SchemaMapping gold_mapping;
  gold_mapping.tables.resize(gs_corpus.size());
  for (const auto& gs : gold) {
    auto class_mapping =
        GoldSchemaMapping(gs_corpus, gs, pipeline->knowledge_base());
    MergeGoldMappings(class_mapping, &gold_mapping);
  }

  std::vector<webtable::TableId> all_tables;
  std::vector<matching::AttributeAnnotation> annotations;

  const webtable::PreparedCorpus& prepared = pipeline->Prepared(gs_corpus);
  util::ThreadPool* pool = &pipeline->pool();

  for (const auto& gs : gold) {
    // Row set of the class under the gold mapping.
    auto rows = rowcluster::BuildClassRowSet(
        prepared, gold_mapping, gs.cls, pipeline->knowledge_base(),
        pipeline->kb_index(), pipeline->options().row_features);
    std::vector<int> assignment(rows.rows.size(), -1);
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      assignment[i] = gs.ClusterOfRow(rows.rows[i].ref);
    }
    {
      util::trace::ScopedSpan span("train.rowcluster");
      span.AddArg("class", static_cast<long long>(gs.cls));
      span.AddArg("rows", rows.rows.size());
      pipeline->clusterer_for(gs.cls).Train(rows, assignment, rng, pool);
    }

    // New detector on gold-cluster entities.
    auto creator = pipeline->MakeEntityCreator();
    std::vector<int> dense_assignment(rows.rows.size(), -1);
    for (size_t i = 0; i < rows.rows.size(); ++i) {
      dense_assignment[i] = assignment[i];
    }
    auto entities =
        creator.Create(rows, dense_assignment, gold_mapping, prepared);
    std::vector<fusion::CreatedEntity> train_entities;
    std::vector<newdetect::DetectionLabel> labels;
    for (size_t k = 0; k < entities.size() && k < gs.clusters.size(); ++k) {
      if (entities[k].rows.empty()) continue;
      train_entities.push_back(std::move(entities[k]));
      labels.push_back({gs.clusters[k].is_new, gs.clusters[k].kb_instance});
    }
    {
      util::trace::ScopedSpan span("train.newdetect");
      span.AddArg("class", static_cast<long long>(gs.cls));
      span.AddArg("entities", train_entities.size());
      pipeline->detector_for(gs.cls).Train(train_entities, labels, rng, pool);
    }

    for (webtable::TableId tid : gs.tables) all_tables.push_back(tid);
    for (const auto& attr : gs.attributes) {
      annotations.push_back({attr.table, attr.column, attr.property});
    }
  }

  {
    util::trace::ScopedSpan span("train.schema_match");
    span.AddArg("iteration", 1);
    pipeline->schema_matcher_first().Learn(prepared, all_tables, annotations,
                                           {}, rng, pool);
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
    pipeline->schema_matcher_refined().Learn(prepared, all_tables,
                                             annotations, feedback, rng, pool);
  }
  LTEE_LOG(kInfo) << "pipeline trained on full gold standard";
}

}  // namespace ltee::pipeline
