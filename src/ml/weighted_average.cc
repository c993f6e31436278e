#include "ml/weighted_average.h"

#include <algorithm>

#include "util/stats.h"

namespace ltee::ml {

void WeightedAverageModel::Train(const std::vector<Example>& examples,
                                 util::Rng& rng,
                                 const GeneticOptions& options,
                                 util::ThreadPool* pool) {
  if (examples.empty()) return;
  const size_t num_metrics = examples.front().features.sims.size();
  // Genome: one weight per metric followed by the threshold.
  auto fitness = [&](const std::vector<double>& genome) {
    WeightedAverageModel candidate(
        std::vector<double>(genome.begin(), genome.end() - 1), genome.back());
    size_t tp = 0, fp = 0, fn = 0;
    for (const auto& ex : examples) {
      const bool predicted = candidate.RawScore(ex.features) >= genome.back();
      const bool actual = ex.target > 0.0;
      if (predicted && actual) ++tp;
      else if (predicted && !actual) ++fp;
      else if (!predicted && actual) ++fn;
    }
    double p = tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
    double r = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
    return util::F1(p, r);
  };
  auto genome = GeneticMaximize(num_metrics + 1, fitness, rng, options, pool);
  weights_.assign(genome.begin(), genome.end() - 1);
  threshold_ = std::min(0.95, std::max(0.05, genome.back()));
}

double WeightedAverageModel::RawScore(const ScoredFeatures& f) const {
  double num = 0.0, den = 0.0;
  const size_t n = std::min(weights_.size(), f.sims.size());
  for (size_t i = 0; i < n; ++i) {
    if (f.sims[i] < 0.0) continue;  // metric not applicable
    num += weights_[i] * f.sims[i];
    den += weights_[i];
  }
  return den == 0.0 ? 0.0 : num / den;
}

double WeightedAverageModel::Score(const ScoredFeatures& f) const {
  const double raw = RawScore(f);
  if (raw >= threshold_) {
    return threshold_ >= 1.0 ? 1.0 : (raw - threshold_) / (1.0 - threshold_);
  }
  return threshold_ <= 0.0 ? -1.0 : (raw - threshold_) / threshold_;
}

std::vector<double> WeightedAverageModel::NormalizedWeights() const {
  double sum = 0.0;
  for (double w : weights_) sum += w;
  std::vector<double> out(weights_.size(), 0.0);
  if (sum == 0.0) return out;
  for (size_t i = 0; i < weights_.size(); ++i) out[i] = weights_[i] / sum;
  return out;
}

}  // namespace ltee::ml
