#ifndef LTEE_ML_RANDOM_FOREST_H_
#define LTEE_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/thread_pool.h"

namespace ltee::ml {

/// Hyper-parameters of the bagged regression forest. The paper learns the
/// hyper-parameters "by using the out-of-bag error with different
/// out-of-bag rates on the learning set"; TuneBagFraction() mirrors that.
struct RandomForestOptions {
  int num_trees = 40;
  int max_depth = 14;
  int min_samples_leaf = 2;
  /// Fraction of features tried at each split (0 selects sqrt(#features)).
  double feature_fraction = 0.0;
  /// Bootstrap sample size as a fraction of the training set; the
  /// complement is the out-of-bag rate.
  double bag_fraction = 1.0;
};

/// Random forest regression (Breiman 2001) from scratch: CART variance-
/// reduction trees over bootstrap samples, prediction by averaging,
/// out-of-bag error estimation, and impurity-based feature importances
/// (used for the "MI" columns of Tables 7 and 8).
class RandomForestRegressor {
 public:
  explicit RandomForestRegressor(RandomForestOptions options = {})
      : options_(options) {}

  /// Fits the forest on row-major `features` with `targets`.
  void Train(const std::vector<std::vector<double>>& features,
             const std::vector<double>& targets, util::Rng& rng);

  /// Mean prediction across trees.
  double Predict(const std::vector<double>& features) const;

  /// Mean squared error on out-of-bag samples; NaN-free (returns 0 when no
  /// sample was ever out of bag).
  double OobError() const { return oob_error_; }

  /// Per-feature importance: total variance reduction attributed to splits
  /// on that feature, normalized to sum to 1.
  const std::vector<double>& FeatureImportances() const {
    return importances_;
  }

  /// Tries each candidate bag fraction, keeps the model with the lowest
  /// out-of-bag error (the first one on ties), and returns the chosen
  /// fraction. Each candidate gets its own fork of `rng`, drawn in
  /// candidate order; the candidates then train concurrently on `pool`
  /// (inline when null), so the chosen model is the same for any pool size.
  double TuneBagFraction(const std::vector<std::vector<double>>& features,
                         const std::vector<double>& targets, util::Rng& rng,
                         const std::vector<double>& candidates = {0.7, 1.0},
                         util::ThreadPool* pool = nullptr);

  bool trained() const { return !trees_.empty(); }
  const RandomForestOptions& options() const { return options_; }

 private:
  struct Node {
    int feature = -1;       // -1 for leaf
    double threshold = 0.0;
    double value = 0.0;     // leaf prediction
    int32_t left = -1;
    int32_t right = -1;
  };
  struct Tree {
    std::vector<Node> nodes;
    double PredictOne(const std::vector<double>& x) const;
  };
  /// Transient column-major copy of the training features, so the split
  /// search reads one contiguous array per feature.
  class Columns;

  /// Train() on features already transposed into `columns`.
  void Fit(const std::vector<std::vector<double>>& features,
           const Columns& columns, const std::vector<double>& targets,
           util::Rng& rng);

  int32_t BuildNode(Tree& tree, const Columns& x,
                    const std::vector<double>& y, std::vector<int>& indices,
                    int begin, int end, int depth, util::Rng& rng);

  RandomForestOptions options_;
  std::vector<Tree> trees_;
  std::vector<std::vector<int>> oob_indices_;  // per tree
  std::vector<double> importances_;
  double oob_error_ = 0.0;
  size_t num_features_ = 0;
};

}  // namespace ltee::ml

#endif  // LTEE_ML_RANDOM_FOREST_H_
