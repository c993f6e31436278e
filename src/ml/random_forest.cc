#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace ltee::ml {

namespace {

double MeanOf(const std::vector<double>& y, const std::vector<int>& idx,
              int begin, int end) {
  double s = 0.0;
  for (int i = begin; i < end; ++i) s += y[idx[i]];
  return s / static_cast<double>(end - begin);
}

double Sse(const std::vector<double>& y, const std::vector<int>& idx,
           int begin, int end, double mean) {
  double s = 0.0;
  for (int i = begin; i < end; ++i) {
    double d = y[idx[i]] - mean;
    s += d * d;
  }
  return s;
}

/// A feature value tagged with the training row it came from. The split
/// search sorts these by value: the comparisons, and so std::sort's
/// permutation, are the same as sorting row indices by `x[row][f]`.
struct Keyed {
  double value;
  int row;
};

}  // namespace

class RandomForestRegressor::Columns {
 public:
  explicit Columns(const std::vector<std::vector<double>>& rows)
      : num_rows_(rows.size()) {
    const size_t num_features = rows.empty() ? 0 : rows.front().size();
    values_.resize(num_features * num_rows_);
    for (size_t f = 0; f < num_features; ++f) {
      for (size_t i = 0; i < num_rows_; ++i) {
        values_[f * num_rows_ + i] = rows[i][f];
      }
    }
  }
  const double* column(int f) const {
    return values_.data() + static_cast<size_t>(f) * num_rows_;
  }

 private:
  size_t num_rows_;
  std::vector<double> values_;
};

double RandomForestRegressor::Tree::PredictOne(
    const std::vector<double>& x) const {
  int32_t node = 0;
  for (;;) {
    const Node& n = nodes[node];
    if (n.feature < 0) return n.value;
    node = x[n.feature] <= n.threshold ? n.left : n.right;
  }
}

int32_t RandomForestRegressor::BuildNode(
    Tree& tree, const Columns& x,
    const std::vector<double>& y, std::vector<int>& indices, int begin,
    int end, int depth, util::Rng& rng) {
  const int32_t node_id = static_cast<int32_t>(tree.nodes.size());
  tree.nodes.emplace_back();
  const int count = end - begin;
  const double mean = MeanOf(y, indices, begin, end);
  const double node_sse = Sse(y, indices, begin, end, mean);

  bool make_leaf = depth >= options_.max_depth ||
                   count < 2 * options_.min_samples_leaf || node_sse <= 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0, best_gain = 0.0;

  if (!make_leaf) {
    int mtry = options_.feature_fraction > 0.0
                   ? std::max(1, static_cast<int>(std::round(
                                     options_.feature_fraction *
                                     static_cast<double>(num_features_))))
                   : std::max(1, static_cast<int>(std::sqrt(
                                     static_cast<double>(num_features_))));
    std::vector<int> feature_order(num_features_);
    std::iota(feature_order.begin(), feature_order.end(), 0);
    rng.Shuffle(&feature_order);
    feature_order.resize(std::min<size_t>(feature_order.size(),
                                          static_cast<size_t>(mtry)));

    // Each feature's sort starts from the order the previous one left.
    std::vector<Keyed> work(count);
    for (int k = 0; k < count; ++k) work[k].row = indices[begin + k];
    for (int f : feature_order) {
      const double* column = x.column(f);
      for (Keyed& k : work) k.value = column[k.row];
      std::sort(work.begin(), work.end(), [](const Keyed& a, const Keyed& b) {
        return a.value < b.value;
      });
      // Prefix sums for O(n) threshold scan.
      double left_sum = 0.0, left_sq = 0.0;
      double total_sum = 0.0, total_sq = 0.0;
      for (const Keyed& k : work) {
        total_sum += y[k.row];
        total_sq += y[k.row] * y[k.row];
      }
      for (int pos = 1; pos < count; ++pos) {
        const int i = work[pos - 1].row;
        left_sum += y[i];
        left_sq += y[i] * y[i];
        if (work[pos - 1].value == work[pos].value) continue;  // tied values
        const int nl = pos, nr = count - pos;
        if (nl < options_.min_samples_leaf || nr < options_.min_samples_leaf) {
          continue;
        }
        const double right_sum = total_sum - left_sum;
        const double right_sq = total_sq - left_sq;
        const double sse_l = left_sq - left_sum * left_sum / nl;
        const double sse_r = right_sq - right_sum * right_sum / nr;
        const double gain = node_sse - (sse_l + sse_r);
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (work[pos - 1].value + work[pos].value);
        }
      }
    }
    if (best_feature < 0) make_leaf = true;
  }

  if (make_leaf) {
    tree.nodes[node_id].feature = -1;
    tree.nodes[node_id].value = mean;
    return node_id;
  }

  importances_[best_feature] += best_gain;
  // Partition indices[begin, end) by the chosen split.
  const double* split_column = x.column(best_feature);
  int mid = begin;
  for (int i = begin; i < end; ++i) {
    if (split_column[indices[i]] <= best_threshold) {
      std::swap(indices[i], indices[mid]);
      ++mid;
    }
  }
  tree.nodes[node_id].feature = best_feature;
  tree.nodes[node_id].threshold = best_threshold;
  const int32_t left =
      BuildNode(tree, x, y, indices, begin, mid, depth + 1, rng);
  const int32_t right = BuildNode(tree, x, y, indices, mid, end, depth + 1, rng);
  tree.nodes[node_id].left = left;
  tree.nodes[node_id].right = right;
  return node_id;
}

void RandomForestRegressor::Train(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& targets, util::Rng& rng) {
  Fit(features, Columns(features), targets, rng);
}

void RandomForestRegressor::Fit(
    const std::vector<std::vector<double>>& features, const Columns& columns,
    const std::vector<double>& targets, util::Rng& rng) {
  trees_.clear();
  oob_indices_.clear();
  const size_t n = features.size();
  if (n == 0) return;
  num_features_ = features.front().size();
  importances_.assign(num_features_, 0.0);

  const int bag_size = std::max(
      1, static_cast<int>(std::round(options_.bag_fraction *
                                     static_cast<double>(n))));
  std::vector<double> oob_sum(n, 0.0);
  std::vector<int> oob_count(n, 0);

  for (int t = 0; t < options_.num_trees; ++t) {
    std::vector<char> in_bag(n, 0);
    std::vector<int> sample;
    sample.reserve(bag_size);
    for (int i = 0; i < bag_size; ++i) {
      size_t pick = rng.NextBounded(n);
      sample.push_back(static_cast<int>(pick));
      in_bag[pick] = 1;
    }
    Tree tree;
    BuildNode(tree, columns, targets, sample, 0,
              static_cast<int>(sample.size()), 0, rng);
    std::vector<int> oob;
    for (size_t i = 0; i < n; ++i) {
      if (!in_bag[i]) {
        oob.push_back(static_cast<int>(i));
        oob_sum[i] += tree.PredictOne(features[i]);
        oob_count[i] += 1;
      }
    }
    trees_.push_back(std::move(tree));
    oob_indices_.push_back(std::move(oob));
  }

  double err = 0.0;
  int counted = 0;
  for (size_t i = 0; i < n; ++i) {
    if (oob_count[i] == 0) continue;
    double pred = oob_sum[i] / oob_count[i];
    double d = pred - targets[i];
    err += d * d;
    ++counted;
  }
  oob_error_ = counted == 0 ? 0.0 : err / counted;

  double total_importance = 0.0;
  for (double imp : importances_) total_importance += imp;
  if (total_importance > 0.0) {
    for (double& imp : importances_) imp /= total_importance;
  }
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  if (trees_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& tree : trees_) s += tree.PredictOne(x);
  return s / static_cast<double>(trees_.size());
}

double RandomForestRegressor::TuneBagFraction(
    const std::vector<std::vector<double>>& features,
    const std::vector<double>& targets, util::Rng& rng,
    const std::vector<double>& candidates, util::ThreadPool* pool) {
  std::vector<RandomForestRegressor> trained;
  std::vector<util::Rng> forks;
  for (double frac : candidates) {
    RandomForestOptions opts = options_;
    opts.bag_fraction = frac;
    trained.emplace_back(opts);
    forks.push_back(rng.Fork());
  }
  const Columns columns(features);
  util::ParallelFor(pool, candidates.size(), [&](size_t c) {
    trained[c].Fit(features, columns, targets, forks[c]);
  });

  double best_fraction = options_.bag_fraction;
  double best_error = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (trained[c].OobError() < best_error) {
      best_error = trained[c].OobError();
      best_fraction = candidates[c];
      *this = std::move(trained[c]);
    }
  }
  return best_fraction;
}

}  // namespace ltee::ml
