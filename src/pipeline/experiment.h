#ifndef LTEE_PIPELINE_EXPERIMENT_H_
#define LTEE_PIPELINE_EXPERIMENT_H_

#include <map>
#include <memory>
#include <vector>

#include "eval/clustering_eval.h"
#include "eval/gold_standard.h"
#include "eval/pipeline_eval.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "util/random.h"

namespace ltee::pipeline {

/// Cross-validated gold-standard experiment driver: reproduces the paper's
/// Sections 3 and 4 evaluations (Tables 6-10) and the Section 6 ranked
/// comparison. Folds are assigned per class at cluster level, stratified
/// by new/existing with homonym groups kept within one fold (Section 2.3);
/// a table belongs to the fold holding most of its annotated rows. Each
/// fold's pipeline is trained by TrainPipelineOnGold on the fold's learning
/// split and evaluated on its test clusters and tables.
class GoldExperiment {
 public:
  GoldExperiment(const kb::KnowledgeBase& kb,
                 const webtable::TableCorpus& gs_corpus,
                 std::vector<eval::GoldStandard> gold,
                 PipelineOptions options = {}, int num_folds = 3,
                 uint64_t seed = 7);
  ~GoldExperiment();

  int num_classes() const { return static_cast<int>(gold_.size()); }
  int folds() const { return num_folds_; }
  const eval::GoldStandard& gold(int class_index) const {
    return gold_[class_index];
  }
  const kb::KnowledgeBase& knowledge_base() const { return *kb_; }

  struct PrfMetrics {
    double precision = 0.0;
    double recall = 0.0;
    double f1 = 0.0;
  };
  /// Table 6: attribute-to-property matching performance after 1, 2, ...,
  /// `max_iterations` pipeline iterations, averaged over folds.
  std::vector<PrfMetrics> SchemaMatchingByIteration(int max_iterations = 3);

  /// Average learned matcher weights of the refined (iteration>=2) schema
  /// matcher, per matcher id, averaged over folds (Section 3.1 weights
  /// discussion). Valid after SchemaMatchingByIteration or any end-to-end
  /// call.
  std::vector<double> AverageSchemaWeights();

  struct ClusteringMetrics {
    double penalized_precision = 0.0;
    double average_recall = 0.0;
    double f1 = 0.0;
    std::vector<double> importances;  // per enabled metric
  };
  /// Table 7 rows and the Section 3.2 aggregation/blocking ablations:
  /// trains a row clusterer with the given configuration per class and
  /// fold, clusters the test rows, and averages the Hassanzadeh metrics.
  ClusteringMetrics RowClustering(const std::vector<bool>& metrics,
                                  ml::AggregationKind aggregation,
                                  bool blocking = true);

  struct DetectionMetrics {
    double accuracy = 0.0;
    double f1_existing = 0.0;
    double f1_new = 0.0;
    std::vector<double> importances;
  };
  /// Table 8 rows: trains a new detector with the given metric mask per
  /// class and fold on gold-cluster entities and evaluates on test folds.
  DetectionMetrics NewDetection(const std::vector<bool>& metrics);

  /// Table 9: new-instances-found P/R/F1 for one class, with either the
  /// gold clustering (GS) or the system clustering (ALL). New detection is
  /// always the full aggregated method.
  eval::InstancesFoundResult NewInstancesFound(int class_index,
                                               bool gold_clustering);

  /// Table 10: facts-found F1 for one class under the chosen component
  /// sources and fusion scoring approach.
  eval::FactsFoundResult FactsFound(int class_index, bool gold_clustering,
                                    bool gold_detection,
                                    fusion::ScoringApproach scoring);

  /// Section 6: ranked evaluation of new entities pooled over classes and
  /// folds, ranked by distance to the closest existing instance.
  eval::RankedEvalResult RankedNewEntities(size_t cutoff = 256);

  /// Section 6 (identity resolution comparison): F1 and accuracy of
  /// matching gold *existing* clusters to their KB instances using the
  /// trained new detection.
  struct InstanceMatchMetrics {
    double f1 = 0.0;
    double accuracy = 0.0;
  };
  InstanceMatchMetrics ExistingInstanceMatching();

 private:
  struct ClassFoldState;
  struct FoldState;

  /// Splits (and caches) a fold and trains its pipeline.
  FoldState& Fold(int fold);
  /// Builds (and caches) the end-to-end pipeline run of a fold.
  const PipelineRunResult& EndToEndRun(int fold);
  /// Entities of one class's test clusters in the fold's end-to-end run,
  /// created by `creator`: with `gold_clustering` one per gold test cluster
  /// (GoldClusterEntities); otherwise from the system clustering of the
  /// run's rows outside the learning clusters, computed once per fold and
  /// class (`clusters` left empty).
  GoldEntities TestEntities(int fold, int class_index, bool gold_clustering,
                            const fusion::EntityCreator& creator);

  const kb::KnowledgeBase* kb_;
  const webtable::TableCorpus* gs_corpus_;
  std::vector<eval::GoldStandard> gold_;
  PipelineOptions options_;
  int num_folds_;
  uint64_t seed_;
  /// fold_of_cluster_[class][cluster] in [0, num_folds).
  std::vector<std::vector<int>> fold_of_cluster_;
  std::vector<std::unique_ptr<FoldState>> fold_states_;
};

}  // namespace ltee::pipeline

#endif  // LTEE_PIPELINE_EXPERIMENT_H_
