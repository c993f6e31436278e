// Smoke tests of the two experiment drivers at tiny scale: the 3-fold gold
// experiment (Tables 6-10) and the large-scale profiling run (Tables
// 11-12). These are integration tests — they assert structural sanity and
// metric bounds, except the fixed-seed test, which pins every gold
// experiment output exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/experiment.h"
#include "pipeline/profiling.h"
#include "synth/dataset.h"

namespace ltee::pipeline {
namespace {

const synth::SyntheticDataset& TinyDataset() {
  static const synth::SyntheticDataset* dataset = [] {
    synth::DatasetOptions options;
    options.scale = 0.0015;
    options.seed = 5;
    return new synth::SyntheticDataset(synth::BuildDataset(options));
  }();
  return *dataset;
}

TEST(GoldExperimentTest, SchemaIterationsAndClusteringAreSane) {
  const auto& ds = TinyDataset();
  GoldExperiment experiment(ds.kb, ds.gs_corpus, ds.gold, {}, 2, 11);
  ASSERT_EQ(experiment.num_classes(), 3);

  auto iterations = experiment.SchemaMatchingByIteration(2);
  ASSERT_EQ(iterations.size(), 2u);
  for (const auto& it : iterations) {
    EXPECT_GE(it.precision, 0.0);
    EXPECT_LE(it.precision, 1.0);
    EXPECT_GE(it.recall, 0.0);
    EXPECT_LE(it.recall, 1.0);
    EXPECT_LE(it.f1, 1.0);
  }
  // Matching is learnable on this data at all.
  EXPECT_GT(iterations[1].f1, 0.3);

  auto weights = experiment.AverageSchemaWeights();
  double sum = 0.0;
  for (double w : weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-6);

  auto clustering = experiment.RowClustering(
      rowcluster::FirstKMetrics(rowcluster::kNumRowMetrics),
      ml::AggregationKind::kCombined);
  EXPECT_GT(clustering.f1, 0.2);
  EXPECT_LE(clustering.f1, 1.0);
  EXPECT_EQ(clustering.importances.size(), 6u);

  auto detection = experiment.NewDetection(
      newdetect::FirstKEntityMetrics(newdetect::kNumEntityMetrics));
  EXPECT_GT(detection.accuracy, 0.4);
  EXPECT_LE(detection.accuracy, 1.0);

  auto instances = experiment.NewInstancesFound(0, /*gold_clustering=*/true);
  EXPECT_GE(instances.f1, 0.0);
  EXPECT_LE(instances.f1, 1.0);

  auto facts = experiment.FactsFound(0, true, true,
                                     fusion::ScoringApproach::kVoting);
  EXPECT_GE(facts.f1, 0.0);
  EXPECT_LE(facts.f1, 1.0);
}

// Every GoldExperiment output on TinyDataset (2 folds, seed 11), in one
// fixed call order: RowClustering and NewDetection draw from the fold RNG
// after training, so the order is part of the result.
std::vector<double> ExperimentOutputs(int num_threads) {
  const auto& ds = TinyDataset();
  PipelineOptions options;
  options.num_threads = num_threads;
  GoldExperiment experiment(ds.kb, ds.gs_corpus, ds.gold, options, 2, 11);
  std::vector<double> out;
  for (const auto& it : experiment.SchemaMatchingByIteration(3)) {
    out.insert(out.end(), {it.precision, it.recall, it.f1});
  }
  for (double w : experiment.AverageSchemaWeights()) out.push_back(w);
  auto clustering = experiment.RowClustering(
      rowcluster::FirstKMetrics(rowcluster::kNumRowMetrics),
      ml::AggregationKind::kCombined);
  out.insert(out.end(), {clustering.penalized_precision,
                         clustering.average_recall, clustering.f1});
  out.insert(out.end(), clustering.importances.begin(),
             clustering.importances.end());
  auto detection = experiment.NewDetection(
      newdetect::FirstKEntityMetrics(newdetect::kNumEntityMetrics));
  out.insert(out.end(), {detection.accuracy, detection.f1_existing,
                         detection.f1_new});
  out.insert(out.end(), detection.importances.begin(),
             detection.importances.end());
  for (int c = 0; c < experiment.num_classes(); ++c) {
    for (bool gold_clustering : {true, false}) {
      auto found = experiment.NewInstancesFound(c, gold_clustering);
      out.insert(out.end(), {found.precision, found.recall, found.f1});
    }
    for (auto scoring :
         {fusion::ScoringApproach::kVoting, fusion::ScoringApproach::kKbt,
          fusion::ScoringApproach::kMatching}) {
      for (auto [gold_clustering, gold_detection] :
           {std::pair{true, true}, {true, false}, {false, false}}) {
        auto facts =
            experiment.FactsFound(c, gold_clustering, gold_detection, scoring);
        out.insert(out.end(),
                   {facts.precision, facts.recall, facts.f1,
                    static_cast<double>(facts.returned_facts),
                    static_cast<double>(facts.correct_facts)});
      }
    }
  }
  auto ranked = experiment.RankedNewEntities();
  out.insert(out.end(), {ranked.map, ranked.p_at_5, ranked.p_at_20});
  auto matching = experiment.ExistingInstanceMatching();
  out.insert(out.end(), {matching.f1, matching.accuracy});
  return out;
}

// ExperimentOutputs as printed with %.17g. Refresh only for an intended
// change of experiment results.
const std::vector<double> kPinnedOutputs = {
    0.93257575757575761, 0.68381555766363999, 0.78870712996389891,
    0.98741731377624387, 0.67902154763518086, 0.80407094393524581,
    0.99180327868852458, 0.68220626101097714, 0.80776098083561487,
    0.17732630532811203, 0.13208325811994504, 0.28444330244289545,
    0.23596347140583784, 0.17018366270320961, 0.53080698850158936,
    0.75670623347142874, 0.62295393657015152, 0.1890105116267069,
    0.37143019858531984, 0.071395611008706547, 0.20172897471692111,
    0.072040470100543555, 0.09439423396180209, 0.90747004408021359,
    0.91719264463803052, 0.88889876718824079, 0.19474613066631663,
    0.10296978469306779, 0.29699586065422517, 0.25986821939969368,
    0.086480814522547481, 0.058939190064149237, 0.94999999999999996,
    0.90909090909090917, 0.92368421052631589, 0.67613636363636365,
    0.64141414141414144, 0.65775401069518713, 0.83472222222222214,
    0.85514813016027191, 0.84479080241792115, 132, 110, 0.78814935064935066,
    0.7565565808644974, 0.7656210312420626, 122, 96, 0.61439393939393938,
    0.54735308402136962, 0.57846382490035808, 115, 71, 0.83472222222222214,
    0.85514813016027191, 0.84479080241792115, 132, 110, 0.78814935064935066,
    0.7565565808644974, 0.7656210312420626, 122, 96, 0.61439393939393938,
    0.54735308402136962, 0.57846382490035808, 115, 71, 0.82638888888888884,
    0.84652744050509954, 0.83631622614673462, 132, 109, 0.78057359307359309,
    0.74793589120932491, 0.75755651511303024, 122, 95, 0.58712121212121215,
    0.52149101505585238, 0.55191515233398636, 115, 68, 0.98750000000000004,
    0.94999999999999996, 0.96735509660226515, 0.40387047811788512,
    0.62115384615384617, 0.48873324673653462, 0.7520460601446517,
    0.81996606334841626, 0.78417266187050361, 290, 218, 0.74812484268814494,
    0.79304298642533944, 0.7699228277819985, 282, 211, 0.3878459139924646,
    0.50735294117647056, 0.43949137679041217, 351, 136, 0.75176056338028174,
    0.82030542986425337, 0.78417266187050361, 290, 218, 0.74852756103699969,
    0.79338235294117654, 0.77029602676369835, 282, 211, 0.3906392100818501,
    0.51504524886877823, 0.44410120623712857, 351, 137, 0.74500380662352494,
    0.8126131221719457, 0.7769784172661871, 290, 216, 0.74122829096400711,
    0.78569004524886876, 0.76280539005957848, 282, 209, 0.39354618682603615,
    0.51487556561085968, 0.44597455750252479, 351, 138, 0.65873015873015872,
    0.90000000000000002, 0.72105263157894739, 0.54326923076923084,
    0.80000000000000004, 0.64548494983277593, 0.91666666666666674, 0.75,
    0.82330827067669166, 30, 27, 0.64912280701754388, 0.67500000000000004,
    0.65864661654135337, 37, 24, 0.4264214046822743, 0.59999999999999998,
    0.49501661129568109, 49, 21, 0.91666666666666674, 0.75, 0.82330827067669166,
    30, 27, 0.71578947368421053, 0.67500000000000004, 0.68571428571428572, 34,
    24, 0.4264214046822743, 0.59999999999999998, 0.49501661129568109, 49, 21,
    0.91666666666666674, 0.75, 0.82330827067669166, 30, 27, 0.71578947368421053,
    0.67500000000000004, 0.68571428571428572, 34, 24, 0.4264214046822743,
    0.59999999999999998, 0.49501661129568109, 49, 21, 0.35896411334257833, 0, 0,
    0.91797415354132716, 0.91436965811965809,
};

TEST(GoldExperimentTest, FixedSeedMetricsArePinnedAndThreadCountIndependent) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    const std::vector<double> outputs = ExperimentOutputs(threads);
    std::string printed;
    for (double v : outputs) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "    %.17g,\n", v);
      printed += buf;
    }
    ASSERT_EQ(outputs.size(), kPinnedOutputs.size()) << printed;
    for (size_t i = 0; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[i], kPinnedOutputs[i]) << "output " << i;
    }
    if (HasFailure()) FAIL() << "outputs:\n" << printed;
  }
}

TEST(ProfilingTest, LargeScaleRunProducesCoherentTables) {
  const auto& ds = TinyDataset();
  ProfilingOptions options;
  options.sample_size = 20;
  auto result = RunLargeScaleProfiling(ds, options);
  ASSERT_EQ(result.classes.size(), 3u);
  for (const auto& row : result.classes) {
    EXPECT_GT(row.total_rows, 0u);
    EXPECT_GE(row.new_entity_accuracy, 0.0);
    EXPECT_LE(row.new_entity_accuracy, 1.0);
    EXPECT_GE(row.new_fact_accuracy, 0.0);
    EXPECT_LE(row.new_fact_accuracy, 1.0);
    // Property densities cover the class schema and are in [0, 1].
    EXPECT_FALSE(row.property_densities.empty());
    size_t fact_sum = 0;
    for (const auto& density : row.property_densities) {
      EXPECT_GE(density.density, 0.0);
      EXPECT_LE(density.density, 1.0);
      fact_sum += density.facts;
    }
    EXPECT_EQ(fact_sum, row.new_facts);
    // Existing/new split covers all entities of the final run.
  }
  // Run artifacts exposed for downstream processing.
  EXPECT_EQ(result.run.classes.size(), 3u);
  EXPECT_EQ(result.run.mappings.size(), 2u);
}

}  // namespace
}  // namespace ltee::pipeline
