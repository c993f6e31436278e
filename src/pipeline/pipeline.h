#ifndef LTEE_PIPELINE_PIPELINE_H_
#define LTEE_PIPELINE_PIPELINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fusion/entity_creator.h"
#include "index/label_index.h"
#include "kb/knowledge_base.h"
#include "matching/schema_matcher.h"
#include "newdetect/new_detector.h"
#include "pipeline/run_report.h"
#include "pipeline/stage_context.h"
#include "rowcluster/row_clusterer.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/token_dictionary.h"
#include "webtable/prepared_corpus.h"
#include "webtable/web_table.h"

namespace ltee::pipeline {

/// Configuration of the full pipeline.
struct PipelineOptions {
  matching::SchemaMatcherOptions schema;
  rowcluster::RowFeatureOptions row_features;
  rowcluster::RowClustererOptions clustering;
  fusion::EntityCreatorOptions fusion;
  newdetect::NewDetectorOptions detection;
  /// Number of pipeline iterations; the paper shows two suffice (Table 6).
  int iterations = 2;
  /// Worker threads for corpus preparation, per-class execution and model
  /// training (0 = hardware concurrency). Results are independent of this
  /// value: classes are merged back in deterministic class order, and
  /// training parallelizes only work whose results land in fixed slots.
  int num_threads = 0;
};

/// Per-class output of one pipeline pass.
struct ClassRunResult {
  kb::ClassId cls = kb::kInvalidClass;
  rowcluster::ClassRowSet rows;
  std::vector<int> cluster_of_row;
  int num_clusters = 0;
  std::vector<fusion::CreatedEntity> entities;
  std::vector<newdetect::Detection> detections;
  /// Wall time per stage of this class pass (build_rows, cluster, fuse,
  /// detect), recorded by RunClass for the run report.
  std::vector<StageTiming> stage_seconds;
  double total_seconds = 0.0;
};

/// Output of a full multi-iteration run.
struct PipelineRunResult {
  /// Schema mapping per iteration (mappings.back() is the final one).
  std::vector<matching::SchemaMapping> mappings;
  /// Final-iteration class results. A full-scope run has one entry per
  /// requested class; a delta run has one entry per *recomputed* class
  /// (same order), matching `recomputed`.
  std::vector<ClassRunResult> classes;
  /// Per-iteration, per-class feedback snapshots in run-class order — the
  /// state a later delta run diffs against and reuses for classes outside
  /// its scope (ignored by SummarizeRun, like `report`).
  std::vector<std::vector<ClassFeedback>> feedback;
  /// Classes the final iteration actually recomputed, in run order.
  std::vector<kb::ClassId> recomputed;
  /// Per-stage / per-class wall times and the metrics snapshot taken at
  /// the end of the run (ignored by SummarizeRun, so golden summaries are
  /// unaffected).
  RunReport report;
};

/// The complete LTEE system (Figure 1): schema matching -> row clustering
/// -> entity creation -> new detection, iterated twice with the first
/// run's clusters and correspondences refining the schema mapping.
///
/// The pipeline owns one schema matcher per iteration stage (the first has
/// no duplicate-based matchers to learn against) and per-class clusterers
/// and detectors (the paper learns weights per class).
class LteePipeline {
 public:
  /// Builds the KB label index internally. `kb` must outlive the pipeline.
  LteePipeline(const kb::KnowledgeBase& kb, PipelineOptions options);

  const index::LabelIndex& kb_index() const { return kb_index_; }
  const kb::KnowledgeBase& knowledge_base() const { return *kb_; }
  const PipelineOptions& options() const { return options_; }

  /// Pipeline-wide token dictionary shared by the KB index, the prepared
  /// corpora and every downstream component.
  const std::shared_ptr<util::TokenDictionary>& dict() const { return dict_; }

  /// Prepared (tokenized + typed) view of `corpus`, built on first use and
  /// memoized per corpus. The corpus must stay alive while the pipeline
  /// uses it. Thread-safe.
  const webtable::PreparedCorpus& Prepared(
      const webtable::TableCorpus& corpus) const;

  /// Worker pool (`options().num_threads` workers) shared by preparation,
  /// per-class execution and training; created on first use. Thread-safe.
  util::ThreadPool& pool() const;

  matching::SchemaMatcher& schema_matcher_first() { return *schema_first_; }
  matching::SchemaMatcher& schema_matcher_refined() {
    return *schema_refined_;
  }

  /// Per-class components; created on first access with the configured
  /// options.
  rowcluster::RowClusterer& clusterer_for(kb::ClassId cls);
  newdetect::NewDetector& detector_for(kb::ClassId cls);
  const rowcluster::RowClusterer& clusterer_for(kb::ClassId cls) const;
  const newdetect::NewDetector& detector_for(kb::ClassId cls) const;

  fusion::EntityCreator MakeEntityCreator() const {
    return fusion::EntityCreator(*kb_, options_.fusion);
  }
  fusion::EntityCreator MakeEntityCreator(fusion::ScoringApproach scoring) const {
    fusion::EntityCreatorOptions opts = options_.fusion;
    opts.scoring = scoring;
    return fusion::EntityCreator(*kb_, opts);
  }

  /// Runs clustering, entity creation and new detection for one class
  /// under `mapping`. Requires the class components to be trained.
  ClassRunResult RunClass(const webtable::TableCorpus& corpus,
                          const matching::SchemaMapping& mapping,
                          kb::ClassId cls) const;

  /// Full multi-iteration run for `classes`: RunScoped with a full scope
  /// and no baseline.
  PipelineRunResult Run(const webtable::TableCorpus& corpus,
                        const std::vector<kb::ClassId>& classes) const;

  /// Scoped multi-iteration run. Schema matching always covers the whole
  /// corpus (its inputs are corpus-global and cheap relative to the class
  /// stages); the per-class stages — row clustering, fusion, new
  /// detection — run only for classes in scope. With a baseline the scope
  /// grows per iteration by DiffMappings against the baseline mapping, and
  /// feedback of out-of-scope classes is replayed from the baseline, so a
  /// delta run over corpus A+B reproduces bit for bit what a full run
  /// computes for the affected classes.
  PipelineRunResult RunScoped(const StageContext& ctx) const;

  /// Aggregates feedback maps from class results, offsetting cluster ids
  /// so clusters of different classes never collide.
  static void CollectFeedback(const std::vector<ClassRunResult>& classes,
                              matching::RowInstanceMap* instances,
                              matching::RowClusterMap* clusters);

  /// Class-local feedback of one class result (cluster ids unoffset).
  static ClassFeedback ExtractClassFeedback(const ClassRunResult& result);

  /// Merges per-class feedback in run-class order into the matcher maps,
  /// applying the same cumulative cluster-id offsets CollectFeedback
  /// applies — cached and fresh feedback merge identically.
  static void MergeClassFeedback(const std::vector<ClassFeedback>& classes,
                                 matching::RowInstanceMap* instances,
                                 matching::RowClusterMap* clusters);

 private:
  /// pool() for callers already holding prepared_mu_.
  util::ThreadPool& PoolLocked() const;

  const kb::KnowledgeBase* kb_;
  PipelineOptions options_;
  /// Created before kb_index_ so KB tokens intern first (declaration order
  /// matters: kb_index_ is initialized from dict_).
  std::shared_ptr<util::TokenDictionary> dict_;
  index::LabelIndex kb_index_;
  std::unique_ptr<matching::SchemaMatcher> schema_first_;
  std::unique_ptr<matching::SchemaMatcher> schema_refined_;
  std::map<kb::ClassId, rowcluster::RowClusterer> clusterers_;
  std::map<kb::ClassId, newdetect::NewDetector> detectors_;
  mutable std::mutex prepared_mu_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
  mutable std::map<const webtable::TableCorpus*,
                   std::unique_ptr<webtable::PreparedCorpus>>
      prepared_;
};

/// Builds a label index over the instances of `kb` (doc = instance id).
/// Tokens intern into `dict` when given (pass the pipeline dictionary so
/// prepared corpora share the id space); a private one is created
/// otherwise.
index::LabelIndex BuildKbLabelIndex(
    const kb::KnowledgeBase& kb,
    std::shared_ptr<util::TokenDictionary> dict = nullptr);

}  // namespace ltee::pipeline

#endif  // LTEE_PIPELINE_PIPELINE_H_
