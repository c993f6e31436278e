#ifndef LTEE_ML_WEIGHTED_AVERAGE_H_
#define LTEE_ML_WEIGHTED_AVERAGE_H_

#include <vector>

#include "ml/dataset.h"
#include "ml/genetic.h"
#include "util/random.h"

namespace ltee::ml {

/// Weighted-average score aggregation (Section 3.2): a learned weight per
/// metric plus a learned decision threshold. The threshold also normalizes
/// the output to [-1, 1] — scores above it map to (0, 1], scores below to
/// [-1, 0) — which is the form the greedy correlation clusterer expects.
/// Confidence scores are not considered by this aggregator.
class WeightedAverageModel {
 public:
  WeightedAverageModel() = default;
  WeightedAverageModel(std::vector<double> weights, double threshold)
      : weights_(std::move(weights)), threshold_(threshold) {}

  /// Learns weights and the threshold with a genetic algorithm maximizing
  /// matching F1 on `examples` (targets +1/-1). Genomes are scored on
  /// `pool` (inline when null); the result does not depend on its size.
  void Train(const std::vector<Example>& examples, util::Rng& rng,
             const GeneticOptions& options = {},
             util::ThreadPool* pool = nullptr);

  /// Raw weighted average of the similarity scores, in [0, 1]. Missing
  /// similarities (-1) are excluded from both numerator and denominator.
  double RawScore(const ScoredFeatures& f) const;

  /// Threshold-normalized score in [-1, 1].
  double Score(const ScoredFeatures& f) const;

  const std::vector<double>& weights() const { return weights_; }
  double threshold() const { return threshold_; }

  /// Weights normalized to sum to 1 (the paper reports these as the
  /// weighted-average half of the metric-importance score).
  std::vector<double> NormalizedWeights() const;

 private:
  std::vector<double> weights_;
  double threshold_ = 0.5;
};

}  // namespace ltee::ml

#endif  // LTEE_ML_WEIGHTED_AVERAGE_H_
