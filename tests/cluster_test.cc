#include "cluster/correlation_clusterer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

namespace ltee::cluster {
namespace {

/// Similarity from a fixed ground-truth partition: +1 within, -1 across.
SimilarityFn PartitionSimilarity(const std::vector<int>& truth) {
  return [truth](int i, int j) {
    return truth[i] == truth[j] ? 1.0 : -1.0;
  };
}

std::vector<std::vector<int32_t>> SingleBlock(size_t n) {
  return std::vector<std::vector<int32_t>>(n, {0});
}

std::set<std::set<int>> AsPartition(const std::vector<int>& cluster_of) {
  std::map<int, std::set<int>> by_cluster;
  for (size_t i = 0; i < cluster_of.size(); ++i) {
    by_cluster[cluster_of[i]].insert(static_cast<int>(i));
  }
  std::set<std::set<int>> out;
  for (auto& [c, members] : by_cluster) out.insert(members);
  return out;
}

TEST(CorrelationClustererTest, RecoversCleanPartition) {
  const std::vector<int> truth = {0, 0, 0, 1, 1, 2, 2, 2, 2};
  auto result = ClusterCorrelation(truth.size(),
                                   PartitionSimilarity(truth),
                                   SingleBlock(truth.size()));
  EXPECT_EQ(result.num_clusters, 3);
  EXPECT_EQ(AsPartition(result.cluster_of),
            (std::set<std::set<int>>{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}));
}

TEST(CorrelationClustererTest, AllSingletonsWhenEverythingDissimilar) {
  auto result = ClusterCorrelation(
      5, [](int, int) { return -1.0; }, SingleBlock(5));
  EXPECT_EQ(result.num_clusters, 5);
}

TEST(CorrelationClustererTest, OneClusterWhenEverythingSimilar) {
  auto result = ClusterCorrelation(
      6, [](int, int) { return 1.0; }, SingleBlock(6));
  EXPECT_EQ(result.num_clusters, 1);
  EXPECT_DOUBLE_EQ(result.fitness, 15.0);  // C(6,2) pairs
}

TEST(CorrelationClustererTest, EmptyInput) {
  auto result = ClusterCorrelation(0, [](int, int) { return 0.0; }, {});
  EXPECT_EQ(result.num_clusters, 0);
  EXPECT_TRUE(result.cluster_of.empty());
}

TEST(CorrelationClustererTest, BlockingPreventsCrossBlockMerges) {
  // Everything is similar, but items live in two disjoint blocks, so the
  // clusterer must not merge across them.
  std::vector<std::vector<int32_t>> blocks = {{0}, {0}, {1}, {1}};
  auto result = ClusterCorrelation(
      4, [](int, int) { return 1.0; }, blocks);
  EXPECT_EQ(result.num_clusters, 2);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_EQ(result.cluster_of[2], result.cluster_of[3]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[2]);
}

TEST(CorrelationClustererTest, KljRepairsGreedyBatchErrors) {
  // With a large batch, the greedy phase assigns the whole batch against
  // an empty snapshot, creating many singletons; KLj must merge them.
  const std::vector<int> truth = {0, 0, 0, 0, 1, 1, 1, 1};
  ClusteringOptions options;
  options.batch_size = 8;  // whole input in one parallel batch
  auto with_klj = ClusterCorrelation(truth.size(),
                                     PartitionSimilarity(truth),
                                     SingleBlock(truth.size()), options);
  EXPECT_EQ(with_klj.num_clusters, 2);

  options.enable_klj = false;
  auto without_klj = ClusterCorrelation(truth.size(),
                                        PartitionSimilarity(truth),
                                        SingleBlock(truth.size()), options);
  // Without the repair phase the one-shot batch yields all singletons.
  EXPECT_GT(without_klj.num_clusters, 2);
  EXPECT_GE(with_klj.fitness, without_klj.fitness);
}

TEST(CorrelationClustererTest, KljSplitsNegativeContributors) {
  // Item 4 is dissimilar to everything; a noisy similarity briefly binds
  // it, the split step must free it. Construct: 0-3 mutually +1, item 4
  // has -1 to all.
  auto sim = [](int i, int j) {
    if (i == 4 || j == 4) return -1.0;
    return 1.0;
  };
  auto result = ClusterCorrelation(5, sim, SingleBlock(5));
  EXPECT_EQ(result.num_clusters, 2);
  // Item 4 alone.
  const int c4 = result.cluster_of[4];
  for (int i = 0; i < 4; ++i) EXPECT_NE(result.cluster_of[i], c4);
}

TEST(CorrelationClustererTest, NoisyPartitionStillMostlyRecovered) {
  // 30 items, 3 clusters of 10, 15% flipped similarities.
  std::vector<int> truth(30);
  for (size_t i = 0; i < truth.size(); ++i) truth[i] = static_cast<int>(i / 10);
  auto noisy = [&truth](int i, int j) {
    // Deterministic hash-based noise.
    uint64_t h = (static_cast<uint64_t>(std::min(i, j)) << 32) |
                 static_cast<uint64_t>(std::max(i, j));
    h = h * 0x9e3779b97f4a7c15ULL + 0x2545F4914F6CDD1DULL;
    const bool flip = (h >> 60) == 0;  // ~6 %
    const double base = truth[i] == truth[j] ? 1.0 : -1.0;
    return flip ? -base : base;
  };
  auto result = ClusterCorrelation(truth.size(), noisy, SingleBlock(30));
  // Allow slight deviation from the ideal 3 clusters.
  EXPECT_GE(result.num_clusters, 3);
  EXPECT_LE(result.num_clusters, 5);
}

}  // namespace
}  // namespace ltee::cluster
