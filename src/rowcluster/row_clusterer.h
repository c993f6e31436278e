#ifndef LTEE_ROWCLUSTER_ROW_CLUSTERER_H_
#define LTEE_ROWCLUSTER_ROW_CLUSTERER_H_

#include <vector>

#include "cluster/correlation_clusterer.h"
#include "ml/aggregator.h"
#include "rowcluster/row_metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ltee::rowcluster {

/// Options of the complete row clustering component.
struct RowClustererOptions {
  /// Metric mask; defaults to all six metrics.
  std::vector<bool> enabled_metrics = FirstKMetrics(kNumRowMetrics);
  ml::AggregationKind aggregation = ml::AggregationKind::kCombined;
  cluster::ClusteringOptions clustering;
  bool enable_blocking = true;
};

/// Row clustering (Section 3.2): a learned aggregation of six similarity
/// metrics drives a parallel greedy correlation clustering refined by KLj,
/// with label-based blocking.
class RowClusterer {
 public:
  explicit RowClusterer(RowClustererOptions options = {});

  /// Learns the score aggregation from labeled rows. `gold_cluster_of_row`
  /// holds, per row of `rows`, the annotated cluster id (-1 for rows not
  /// annotated — those generate no pairs). Positive pairs are same-cluster
  /// pairs; negatives are block-sharing pairs from different clusters,
  /// upsampled to balance. The aggregator trains on `pool` (inline when
  /// null); the result does not depend on its size.
  void Train(const ClassRowSet& rows,
             const std::vector<int>& gold_cluster_of_row, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  /// Clusters the rows; requires Train() (or an injected aggregator).
  cluster::ClusteringResult Cluster(const ClassRowSet& rows) const;

  /// Score offset learned by Train(): after aggregation, scores are shifted
  /// by this amount before the correlation clusterer sees them. Calibrated
  /// by sweeping offsets and maximizing a penalized pairwise clustering F1
  /// on the learning rows (counters systematic over-/under-merging).
  double score_offset() const { return score_offset_; }
  void set_score_offset(double offset) { score_offset_ = offset; }

  /// Per-enabled-metric importance (paper's MI column), averaged over the
  /// learned random forest importances and weighted-average weights.
  std::vector<double> MetricImportances() const {
    return aggregator_.MetricImportances();
  }

  const ml::ScoreAggregator& aggregator() const { return aggregator_; }
  ml::ScoreAggregator* mutable_aggregator() { return &aggregator_; }
  const RowClustererOptions& options() const { return options_; }

  /// Builds the per-row block sets used to restrict comparisons. Exposed
  /// for tests and for the blocking ablation bench.
  std::vector<std::vector<int32_t>> BuildBlocks(const ClassRowSet& rows) const;

 private:
  /// `count_near_threshold` flushes the near-threshold tally into the
  /// quality counters; inference passes true, the Train() calibration
  /// sweep false (calibration probes must not skew the drift gauges).
  /// `bank` and `blocks` (from BuildBlocks) must be built over `rows`;
  /// callers build both once per row set: the calibration sweep reuses
  /// them for every offset, and Cluster() shares the bank with the
  /// provenance pass.
  cluster::ClusteringResult ClusterWithOffset(
      const ClassRowSet& rows, const RowMetricBank& bank,
      const std::vector<std::vector<int32_t>>& blocks, double offset,
      bool count_near_threshold) const;

  /// Emits one prov::ClusterDecision per row of the final clustering: the
  /// strongest co-member similarity (support), its per-metric components
  /// and the applied score offset. Reuses the Cluster() metric bank —
  /// rebuilding one (vocab-squared token-similarity precompute) would
  /// dwarf the ledger's own cost.
  void RecordClusterDecisions(const ClassRowSet& rows,
                              const RowMetricBank& bank,
                              const cluster::ClusteringResult& result) const;

  RowClustererOptions options_;
  ml::ScoreAggregator aggregator_;
  double score_offset_ = 0.0;
};

}  // namespace ltee::rowcluster

#endif  // LTEE_ROWCLUSTER_ROW_CLUSTERER_H_
