#ifndef LTEE_ML_AGGREGATOR_H_
#define LTEE_ML_AGGREGATOR_H_

#include <vector>

#include "ml/dataset.h"
#include "ml/random_forest.h"
#include "ml/weighted_average.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ltee::ml {

/// The three score-aggregation approaches evaluated by the paper for both
/// row clustering and new detection.
enum class AggregationKind {
  /// GA-learned weighted average of similarity scores.
  kWeightedAverage,
  /// Random forest regression over similarity and confidence scores.
  kRandomForest,
  /// Learned weighted blend of the two above (the best-performing variant).
  kCombined,
};

/// Trains and applies one of the aggregation approaches, producing scores
/// in [-1, 1] where positive means "same instance". Also exposes the
/// paper's metric-importance read-out: the average of each metric's
/// relative importance inside the random forest and its weight in the
/// weighted-average function.
class ScoreAggregator {
 public:
  ScoreAggregator() = default;

  /// Trains on labeled pairs (targets +1/-1). Upsamples to balance classes
  /// before learning. `kind` selects the aggregation approach. GA fitness,
  /// the bag-fraction candidates and the blend-sweep scoring run on `pool`
  /// (inline when null); the trained model is the same for any pool size.
  void Train(std::vector<Example> examples, AggregationKind kind,
             util::Rng& rng, util::ThreadPool* pool = nullptr);

  /// Aggregated score in [-1, 1].
  double Score(const ScoredFeatures& f) const;

  /// Per-metric importance (normalized to sum to 1). For kCombined this is
  /// the average of the forest importance (sim+conf features of a metric
  /// pooled) and the normalized weighted-average weight.
  std::vector<double> MetricImportances() const;

  AggregationKind kind() const { return kind_; }
  bool trained() const { return trained_; }
  const WeightedAverageModel& weighted_average() const { return wa_; }
  const RandomForestRegressor& forest() const { return forest_; }

 private:
  AggregationKind kind_ = AggregationKind::kCombined;
  WeightedAverageModel wa_;
  RandomForestRegressor forest_;
  double blend_wa_ = 0.5;  // learned combination weight for kCombined
  size_t num_metrics_ = 0;
  bool trained_ = false;
};

}  // namespace ltee::ml

#endif  // LTEE_ML_AGGREGATOR_H_
