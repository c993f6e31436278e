#include "ml/aggregator.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace ltee::ml {

void ScoreAggregator::Train(std::vector<Example> examples,
                            AggregationKind kind, util::Rng& rng,
                            util::ThreadPool* pool) {
  kind_ = kind;
  trained_ = true;
  if (examples.empty()) return;
  num_metrics_ = examples.front().features.sims.size();
  examples = BalanceByUpsampling(std::move(examples), rng);

  if (kind == AggregationKind::kWeightedAverage ||
      kind == AggregationKind::kCombined) {
    wa_.Train(examples, rng, {}, pool);
  }
  std::vector<std::vector<double>> x;  // forest features, one per example
  if (kind == AggregationKind::kRandomForest ||
      kind == AggregationKind::kCombined) {
    std::vector<double> y;
    x.reserve(examples.size());
    y.reserve(examples.size());
    for (const auto& ex : examples) {
      x.push_back(FlattenForForest(ex.features));
      y.push_back(ex.target);
    }
    forest_.TuneBagFraction(x, y, rng, {0.7, 1.0}, pool);
  }
  if (kind == AggregationKind::kCombined) {
    // Learn the blend weight by a 1-D sweep maximizing pair F1 (equivalent
    // to the GA on a single weight but cheaper and deterministic). Neither
    // model's score depends on the weight, so score each example once.
    std::vector<double> wa_scores(examples.size());
    std::vector<double> forest_scores(examples.size());
    util::ParallelFor(pool, examples.size(), [&](size_t i) {
      wa_scores[i] = wa_.Score(examples[i].features);
      forest_scores[i] = forest_.Predict(x[i]);
    });
    double best_f1 = -1.0, best_w = 0.5;
    for (int step = 0; step <= 20; ++step) {
      const double w = step / 20.0;
      size_t tp = 0, fp = 0, fn = 0;
      for (size_t i = 0; i < examples.size(); ++i) {
        const double s = w * wa_scores[i] + (1.0 - w) * forest_scores[i];
        const bool predicted = s > 0.0;
        const bool actual = examples[i].target > 0.0;
        if (predicted && actual) ++tp;
        else if (predicted && !actual) ++fp;
        else if (!predicted && actual) ++fn;
      }
      const double p = tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
      const double r = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
      const double f1 = util::F1(p, r);
      if (f1 > best_f1) {
        best_f1 = f1;
        best_w = w;
      }
    }
    blend_wa_ = best_w;
  }
}

double ScoreAggregator::Score(const ScoredFeatures& f) const {
  switch (kind_) {
    case AggregationKind::kWeightedAverage:
      return wa_.Score(f);
    case AggregationKind::kRandomForest:
      return std::clamp(forest_.Predict(FlattenForForest(f)), -1.0, 1.0);
    case AggregationKind::kCombined:
      return std::clamp(
          blend_wa_ * wa_.Score(f) +
              (1.0 - blend_wa_) * forest_.Predict(FlattenForForest(f)),
          -1.0, 1.0);
  }
  return 0.0;
}

std::vector<double> ScoreAggregator::MetricImportances() const {
  std::vector<double> out(num_metrics_, 0.0);
  if (num_metrics_ == 0) return out;

  std::vector<double> forest_imp(num_metrics_, 0.0);
  const auto& raw = forest_.FeatureImportances();
  if (!raw.empty()) {
    // Forest features are [sims..., confs...]; pool both per metric.
    for (size_t m = 0; m < num_metrics_; ++m) {
      forest_imp[m] += raw[m];
      if (num_metrics_ + m < raw.size()) forest_imp[m] += raw[num_metrics_ + m];
    }
    double s = 0.0;
    for (double v : forest_imp) s += v;
    if (s > 0.0) {
      for (double& v : forest_imp) v /= s;
    }
  }
  const auto wa_weights = wa_.NormalizedWeights();

  for (size_t m = 0; m < num_metrics_; ++m) {
    double f = forest_imp[m];
    double w = m < wa_weights.size() ? wa_weights[m] : 0.0;
    switch (kind_) {
      case AggregationKind::kWeightedAverage:
        out[m] = w;
        break;
      case AggregationKind::kRandomForest:
        out[m] = f;
        break;
      case AggregationKind::kCombined:
        out[m] = 0.5 * (f + w);
        break;
    }
  }
  return out;
}

}  // namespace ltee::ml
