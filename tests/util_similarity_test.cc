#include "util/similarity.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/token_dictionary.h"

namespace ltee::util {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
}

TEST(LevenshteinSimilarityTest, NormalizedToUnitInterval) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("abcd", "abcx"), 0.75, 1e-9);
}

TEST(MongeElkanTest, IdenticalTokensAreFullySimilar) {
  EXPECT_DOUBLE_EQ(MongeElkanLevenshtein("John Smith", "John Smith"), 1.0);
}

TEST(MongeElkanTest, TokenOrderDoesNotMatter) {
  EXPECT_DOUBLE_EQ(MongeElkanLevenshtein("Smith John", "John Smith"), 1.0);
}

TEST(MongeElkanTest, RobustToSmallTypos) {
  const double sim = MongeElkanLevenshtein("Jon Smith", "John Smith");
  EXPECT_GT(sim, 0.85);
  EXPECT_LT(sim, 1.0);
}

TEST(MongeElkanTest, DissimilarStringsScoreLow) {
  EXPECT_LT(MongeElkanLevenshtein("Springfield", "Tokyo"), 0.5);
}

TEST(MongeElkanTest, SubsetOfTokensScoresHighViaSymmetry) {
  // The directed score from the shorter side is perfect; the symmetrized
  // maximum keeps it high.
  EXPECT_DOUBLE_EQ(MongeElkanLevenshtein("Smith", "John Smith"), 1.0);
}

TEST(CosineBinaryTest, OverlapScaledByNorms) {
  TokenDictionary dict;
  const std::vector<uint32_t> a = SortedUnique(dict.InternTokens("x y"));
  const std::vector<uint32_t> b = SortedUnique(dict.InternTokens("y z"));
  EXPECT_NEAR(CosineBinary(a, b), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(CosineBinary(a, a), 1.0);
  EXPECT_DOUBLE_EQ(CosineBinary({}, a), 0.0);
}

TEST(CosineSparseTest, MatchesDenseEquivalent) {
  std::unordered_map<uint32_t, double> a = {{1, 1.0}, {2, 2.0}};
  std::unordered_map<uint32_t, double> b = {{2, 2.0}, {3, 1.0}};
  // dot = 4, |a| = sqrt(5), |b| = sqrt(5).
  EXPECT_NEAR(CosineSparse(a, b), 4.0 / 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSparse({}, b), 0.0);
}

TEST(CosineDenseTest, OrthogonalAndParallel) {
  EXPECT_DOUBLE_EQ(CosineDense({1, 0}, {0, 1}), 0.0);
  EXPECT_NEAR(CosineDense({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
}

}  // namespace
}  // namespace ltee::util
