#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ml/aggregator.h"
#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/genetic.h"
#include "ml/random_forest.h"
#include "ml/weighted_average.h"
#include "util/thread_pool.h"

namespace ltee::ml {
namespace {

// ---------------------------------------------------------------------------
// Dataset helpers
// ---------------------------------------------------------------------------

TEST(DatasetTest, FlattenImputesMissingSimilarities) {
  ScoredFeatures f;
  f.sims = {0.5, -1.0, 0.9};
  f.confs = {0.0, 2.0, 1.0};
  EXPECT_EQ(FlattenForForest(f),
            (std::vector<double>{0.5, 0.0, 0.9, 0.0, 2.0, 1.0}));
  EXPECT_EQ(SimsOnly(f), (std::vector<double>{0.5, 0.0, 0.9}));
}

TEST(DatasetTest, UpsamplingBalancesClasses) {
  std::vector<Example> examples;
  for (int i = 0; i < 3; ++i) {
    examples.push_back({{{1.0}, {0.0}}, 1.0});
  }
  for (int i = 0; i < 9; ++i) {
    examples.push_back({{{0.0}, {0.0}}, -1.0});
  }
  util::Rng rng(1);
  auto balanced = BalanceByUpsampling(std::move(examples), rng);
  int pos = 0, neg = 0;
  for (const auto& ex : balanced) (ex.target > 0 ? pos : neg) += 1;
  EXPECT_EQ(pos, neg);
  EXPECT_EQ(pos, 9);
}

TEST(DatasetTest, UpsamplingNoopWhenOneClassMissing) {
  std::vector<Example> examples = {{{{1.0}, {}}, 1.0}, {{{0.9}, {}}, 1.0}};
  util::Rng rng(1);
  EXPECT_EQ(BalanceByUpsampling(examples, rng).size(), 2u);
}

// ---------------------------------------------------------------------------
// Genetic optimizer
// ---------------------------------------------------------------------------

TEST(GeneticTest, FindsMaximumOfConcaveFunction) {
  util::Rng rng(3);
  // Maximum at (0.3, 0.7).
  auto fitness = [](const std::vector<double>& g) {
    return -(g[0] - 0.3) * (g[0] - 0.3) - (g[1] - 0.7) * (g[1] - 0.7);
  };
  auto best = GeneticMaximize(2, fitness, rng);
  EXPECT_NEAR(best[0], 0.3, 0.08);
  EXPECT_NEAR(best[1], 0.7, 0.08);
}

TEST(GeneticTest, RespectsUnitBox) {
  util::Rng rng(4);
  auto fitness = [](const std::vector<double>& g) { return g[0]; };
  auto best = GeneticMaximize(1, fitness, rng);
  EXPECT_GE(best[0], 0.0);
  EXPECT_LE(best[0], 1.0);
  EXPECT_GT(best[0], 0.9);  // should push to the boundary
}

// ---------------------------------------------------------------------------
// Weighted average model
// ---------------------------------------------------------------------------

TEST(WeightedAverageTest, RawScoreSkipsMissingMetrics) {
  WeightedAverageModel model({1.0, 1.0}, 0.5);
  ScoredFeatures f;
  f.sims = {0.8, -1.0};
  EXPECT_DOUBLE_EQ(model.RawScore(f), 0.8);
  f.sims = {0.8, 0.4};
  EXPECT_DOUBLE_EQ(model.RawScore(f), 0.6);
}

TEST(WeightedAverageTest, ThresholdNormalizesToSignedUnit) {
  WeightedAverageModel model({1.0}, 0.5);
  ScoredFeatures high;
  high.sims = {1.0};
  EXPECT_DOUBLE_EQ(model.Score(high), 1.0);
  ScoredFeatures low;
  low.sims = {0.0};
  EXPECT_DOUBLE_EQ(model.Score(low), -1.0);
  ScoredFeatures mid;
  mid.sims = {0.5};
  EXPECT_DOUBLE_EQ(model.Score(mid), 0.0);
}

TEST(WeightedAverageTest, LearnsToSeparateByInformativeMetric) {
  // Metric 0 is informative, metric 1 is noise.
  std::vector<Example> examples;
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const bool positive = i % 2 == 0;
    Example ex;
    ex.features.sims = {positive ? 0.9 : 0.1, rng.NextDouble()};
    ex.features.confs = {0.0, 0.0};
    ex.target = positive ? 1.0 : -1.0;
    examples.push_back(std::move(ex));
  }
  WeightedAverageModel model;
  model.Train(examples, rng);
  int correct = 0;
  for (const auto& ex : examples) {
    const bool predicted = model.Score(ex.features) > 0.0;
    if (predicted == (ex.target > 0)) ++correct;
  }
  EXPECT_GT(correct, 190);
  const auto weights = model.NormalizedWeights();
  EXPECT_GT(weights[0], weights[1]);
}

// ---------------------------------------------------------------------------
// Random forest
// ---------------------------------------------------------------------------

TEST(RandomForestTest, FitsNonlinearFunction) {
  // XOR-like target that a linear model cannot fit.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  util::Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextDouble(), b = rng.NextDouble();
    x.push_back({a, b});
    y.push_back(((a > 0.5) != (b > 0.5)) ? 1.0 : -1.0);
  }
  RandomForestOptions options;
  options.num_trees = 40;
  RandomForestRegressor forest(options);
  forest.Train(x, y, rng);
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if ((forest.Predict(x[i]) > 0) == (y[i] > 0)) ++correct;
  }
  EXPECT_GT(correct, 380);
  EXPECT_LT(forest.OobError(), 1.0);
}

TEST(RandomForestTest, ImportancesIdentifyInformativeFeature) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  util::Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    const double a = rng.NextDouble(), noise = rng.NextDouble();
    x.push_back({a, noise});
    y.push_back(a > 0.5 ? 1.0 : -1.0);
  }
  RandomForestOptions options;
  options.num_trees = 30;
  options.feature_fraction = 1.0;
  RandomForestRegressor forest(options);
  forest.Train(x, y, rng);
  const auto& importances = forest.FeatureImportances();
  ASSERT_EQ(importances.size(), 2u);
  EXPECT_GT(importances[0], 0.8);
  EXPECT_NEAR(importances[0] + importances[1], 1.0, 1e-9);
}

TEST(RandomForestTest, TuneBagFractionPicksACandidate) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  util::Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.NextDouble();
    x.push_back({a});
    y.push_back(a);
  }
  RandomForestRegressor forest;
  const double chosen = forest.TuneBagFraction(x, y, rng, {0.6, 1.0});
  EXPECT_TRUE(chosen == 0.6 || chosen == 1.0);
  EXPECT_TRUE(forest.trained());
}

TEST(RandomForestTest, EmptyTrainingIsHarmless) {
  RandomForestRegressor forest;
  util::Rng rng(1);
  forest.Train({}, {}, rng);
  EXPECT_FALSE(forest.trained());
  EXPECT_DOUBLE_EQ(forest.Predict({1.0}), 0.0);
}

// ---------------------------------------------------------------------------
// Combined aggregator
// ---------------------------------------------------------------------------

class AggregatorKindTest
    : public ::testing::TestWithParam<AggregationKind> {};

TEST_P(AggregatorKindTest, LearnsSeparableData) {
  std::vector<Example> examples;
  util::Rng rng(10);
  for (int i = 0; i < 300; ++i) {
    const bool positive = i % 3 == 0;  // imbalanced on purpose
    Example ex;
    ex.features.sims = {positive ? 0.8 + 0.2 * rng.NextDouble()
                                 : 0.2 * rng.NextDouble(),
                        rng.NextDouble()};
    ex.features.confs = {1.0, 0.0};
    ex.target = positive ? 1.0 : -1.0;
    examples.push_back(std::move(ex));
  }
  ScoreAggregator aggregator;
  aggregator.Train(examples, GetParam(), rng);
  int correct = 0;
  for (const auto& ex : examples) {
    const double s = aggregator.Score(ex.features);
    EXPECT_GE(s, -1.0);
    EXPECT_LE(s, 1.0);
    if ((s > 0) == (ex.target > 0)) ++correct;
  }
  EXPECT_GT(correct, 280);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, AggregatorKindTest,
                         ::testing::Values(AggregationKind::kWeightedAverage,
                                           AggregationKind::kRandomForest,
                                           AggregationKind::kCombined));

TEST(AggregatorTest, MetricImportancesSumToOne) {
  std::vector<Example> examples;
  util::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    Example ex;
    ex.features.sims = {rng.NextDouble(), rng.NextDouble(), rng.NextDouble()};
    ex.features.confs = {0.0, 0.0, 0.0};
    ex.target = ex.features.sims[1] > 0.5 ? 1.0 : -1.0;
    examples.push_back(std::move(ex));
  }
  ScoreAggregator aggregator;
  aggregator.Train(examples, AggregationKind::kCombined, rng);
  const auto importances = aggregator.MetricImportances();
  ASSERT_EQ(importances.size(), 3u);
  double sum = 0.0;
  for (double imp : importances) sum += imp;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // The informative metric should dominate.
  EXPECT_GT(importances[1], importances[0]);
  EXPECT_GT(importances[1], importances[2]);
}

// ---------------------------------------------------------------------------
// Thread-count determinism: every trainer that takes a pool must produce
// bit-identical output inline, on one worker and on four.
// ---------------------------------------------------------------------------

/// Runs `train(pool)` inline, on a 1-thread pool and on a 4-thread pool,
/// and returns the three results in that order.
template <typename Fn>
auto TrainAtEachThreadCount(Fn train) {
  util::ThreadPool one(1), four(4);
  return std::vector{train(nullptr), train(&one), train(&four)};
}

std::vector<Example> NoisyExamples(int n, size_t num_metrics, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Example> examples;
  for (int i = 0; i < n; ++i) {
    Example ex;
    double sum = 0.0;
    for (size_t m = 0; m < num_metrics; ++m) {
      const double sim = rng.NextDouble() < 0.1 ? -1.0 : rng.NextDouble();
      ex.features.sims.push_back(sim);
      ex.features.confs.push_back(rng.NextDouble());
      sum += sim * static_cast<double>(m + 1);
    }
    ex.target = sum + 0.5 * rng.NextGaussian() > 2.0 ? 1.0 : -1.0;
    examples.push_back(std::move(ex));
  }
  return examples;
}

TEST(ThreadCountDeterminismTest, GeneticMaximizeReturnsSameGenome) {
  auto fitness = [](const std::vector<double>& g) {
    return std::sin(7.0 * g[0]) * std::cos(5.0 * g[1]) - 0.3 * g[2] * g[2];
  };
  const auto genomes = TrainAtEachThreadCount([&](util::ThreadPool* pool) {
    util::Rng rng(21);
    return GeneticMaximize(3, fitness, rng, {}, pool);
  });
  EXPECT_EQ(genomes[0], genomes[1]);
  EXPECT_EQ(genomes[0], genomes[2]);
}

TEST(ThreadCountDeterminismTest, TuneBagFractionChoosesSameForest) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const Example& ex : NoisyExamples(600, 3, 22)) {
    x.push_back(FlattenForForest(ex.features));
    y.push_back(ex.target);
  }
  std::vector<std::vector<double>> probe;
  for (const Example& ex : NoisyExamples(50, 3, 23)) {
    probe.push_back(FlattenForForest(ex.features));
  }
  struct Outcome {
    double fraction;
    double oob_error;
    std::vector<double> importances;
    std::vector<double> predictions;
  };
  const auto outcomes = TrainAtEachThreadCount([&](util::ThreadPool* pool) {
    RandomForestOptions options;
    options.num_trees = 12;
    RandomForestRegressor forest(options);
    util::Rng rng(24);
    Outcome out;
    out.fraction = forest.TuneBagFraction(x, y, rng, {0.6, 0.8, 1.0}, pool);
    out.oob_error = forest.OobError();
    out.importances = forest.FeatureImportances();
    for (const auto& row : probe) out.predictions.push_back(forest.Predict(row));
    return out;
  });
  for (size_t k = 1; k < outcomes.size(); ++k) {
    EXPECT_EQ(outcomes[k].fraction, outcomes[0].fraction);
    EXPECT_EQ(outcomes[k].oob_error, outcomes[0].oob_error);
    EXPECT_EQ(outcomes[k].importances, outcomes[0].importances);
    EXPECT_EQ(outcomes[k].predictions, outcomes[0].predictions);
  }
}

TEST(ThreadCountDeterminismTest, CombinedAggregatorScoresIdentically) {
  const auto examples = NoisyExamples(400, 4, 25);
  const auto probe = NoisyExamples(60, 4, 26);
  struct Outcome {
    std::vector<double> scores;
    std::vector<double> importances;
  };
  const auto outcomes = TrainAtEachThreadCount([&](util::ThreadPool* pool) {
    ScoreAggregator aggregator;
    util::Rng rng(27);
    aggregator.Train(examples, AggregationKind::kCombined, rng, pool);
    Outcome out;
    for (const Example& ex : probe) {
      out.scores.push_back(aggregator.Score(ex.features));
    }
    out.importances = aggregator.MetricImportances();
    return out;
  });
  for (size_t k = 1; k < outcomes.size(); ++k) {
    EXPECT_EQ(outcomes[k].scores, outcomes[0].scores);
    EXPECT_EQ(outcomes[k].importances, outcomes[0].importances);
  }
}

// ---------------------------------------------------------------------------
// Cross-validation fold assignment
// ---------------------------------------------------------------------------

TEST(CrossValidationTest, GroupsStayTogether) {
  const size_t n = 30;
  std::vector<int64_t> group(n, -1);
  group[0] = group[5] = group[17] = 100;
  group[2] = group[3] = 200;
  std::vector<int> stratum(n, 0);
  util::Rng rng(12);
  const auto folds = AssignFolds(n, group, stratum, 3, rng);
  EXPECT_EQ(folds[0], folds[5]);
  EXPECT_EQ(folds[0], folds[17]);
  EXPECT_EQ(folds[2], folds[3]);
}

TEST(CrossValidationTest, StrataBalancedAcrossFolds) {
  const size_t n = 90;
  std::vector<int64_t> group(n, -1);
  std::vector<int> stratum(n);
  for (size_t i = 0; i < n; ++i) stratum[i] = i % 2;  // two strata
  util::Rng rng(13);
  const auto folds = AssignFolds(n, group, stratum, 3, rng);
  int count[3][2] = {};
  for (size_t i = 0; i < n; ++i) count[folds[i]][stratum[i]] += 1;
  for (int f = 0; f < 3; ++f) {
    EXPECT_NEAR(count[f][0], 15, 2);
    EXPECT_NEAR(count[f][1], 15, 2);
  }
}

TEST(CrossValidationTest, AllFoldsInRange) {
  std::vector<int64_t> group(10, -1);
  std::vector<int> stratum(10, 0);
  util::Rng rng(14);
  const auto folds = AssignFolds(10, group, stratum, 4, rng);
  std::set<int> seen(folds.begin(), folds.end());
  for (int f : seen) {
    EXPECT_GE(f, 0);
    EXPECT_LT(f, 4);
  }
}

}  // namespace
}  // namespace ltee::ml
