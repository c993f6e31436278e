// Hand-built cases for the truth-based quality evaluator.
#include <gtest/gtest.h>

#include "quality.h"

namespace kbbench {
namespace {

using ltee::kb::Fact;
using ltee::synth::WorldEntity;
using ltee::types::Value;

constexpr int kProfile = 0;
constexpr ltee::kb::PropertyId kYear = 7;

/// Three world entities of profile 0: entity 0 is in the KB, 1 and 2 are
/// new; each has one truth value (a year) in slot 0.
std::vector<WorldEntity> MakeWorld() {
  std::vector<WorldEntity> world(3);
  for (int i = 0; i < 3; ++i) {
    world[i].id = i;
    world[i].profile_index = kProfile;
    world[i].in_kb = i == 0;
    world[i].truth = {Value::OfQuantity(1990.0 + i)};
  }
  return world;
}

ClassOutcome MakeClass(std::unordered_map<int, int> universe) {
  ClassOutcome outcome;
  outcome.profile = kProfile;
  outcome.universe = std::move(universe);
  outcome.property_slot[kYear] = 0;
  return outcome;
}

EntityOutcome NewEntity(std::vector<int> row_world, std::vector<Fact> facts) {
  EntityOutcome entity;
  entity.is_new = true;
  entity.row_world = std::move(row_world);
  entity.facts = std::move(facts);
  return entity;
}

Fact YearFact(double year) {
  Fact fact;
  fact.property = kYear;
  fact.value = Value::OfQuantity(year);
  return fact;
}

TEST(PairCountsTest, PerfectClusteringScoresOne) {
  // Same partition under different label names.
  const std::vector<int> predicted = {5, 5, 9, 9, 9, 2};
  const std::vector<int> truth = {0, 0, 1, 1, 1, 2};
  const PairCounts counts = CountPairs(predicted, truth);
  EXPECT_EQ(counts.both, 4u);
  EXPECT_EQ(counts.predicted, 4u);
  EXPECT_EQ(counts.truth, 4u);
  EXPECT_DOUBLE_EQ(PairF1(counts), 1.0);
}

TEST(PairCountsTest, AllSingletonsScoreZero) {
  const std::vector<int> predicted = {0, 1, 2, -1};
  const std::vector<int> truth = {0, 0, 1, 1};
  const PairCounts counts = CountPairs(predicted, truth);
  EXPECT_EQ(counts.both, 0u);
  EXPECT_EQ(counts.predicted, 0u);
  EXPECT_EQ(counts.truth, 2u);
  EXPECT_DOUBLE_EQ(PairF1(counts), 0.0);
}

TEST(PairCountsTest, PartialOverlapFromContingencyCounts) {
  // Predicted {0,1,2} {3}; truth {0,1} {2,3}: 3 predicted pairs, 2 truth
  // pairs, 1 shared -> P = 1/3, R = 1/2, F1 = 0.4.
  const PairCounts counts = CountPairs({0, 0, 0, 1}, {0, 0, 1, 1});
  EXPECT_EQ(counts.both, 1u);
  EXPECT_EQ(counts.predicted, 3u);
  EXPECT_EQ(counts.truth, 2u);
  EXPECT_NEAR(PairF1(counts), 0.4, 1e-12);
}

TEST(PairCountsTest, NoPairsAnywhereScoresOne) {
  EXPECT_DOUBLE_EQ(PairF1(CountPairs({0, 1}, {-1, 3})), 1.0);
}

TEST(EvaluateTest, NewEntitySplitAcrossTwoWorldEntities) {
  // One entity holds 2 rows of world entity 1 and 3 rows of world entity
  // 2: it finds entity 2 (majority, and all of 2's rows) but not 1.
  ClassOutcome outcome = MakeClass({{0, 4}, {1, 2}, {2, 3}});
  outcome.entities.push_back(NewEntity({1, 1, 2, 2, 2}, {}));
  const Quality quality = Evaluate({outcome}, MakeWorld());
  ASSERT_EQ(quality.classes.size(), 1u);
  const ClassQuality& q = quality.classes[0];
  EXPECT_EQ(q.returned_new, 1u);
  EXPECT_EQ(q.correct_new, 1u);
  EXPECT_EQ(q.found_new, 1u);
  EXPECT_EQ(q.truth_new, 2u);
  // P = 1, R = 1/2.
  EXPECT_NEAR(quality.new_entity_f1, 2.0 / 3.0, 1e-12);
}

TEST(EvaluateTest, EntityWithoutMajorityOrKnownToKbIsWrong) {
  ClassOutcome outcome = MakeClass({{0, 2}, {1, 4}, {2, 1}});
  // Holds only 1 of entity 1's 4 rows.
  outcome.entities.push_back(NewEntity({1}, {}));
  // Rows of the in-KB entity 0 returned as new.
  outcome.entities.push_back(NewEntity({0, 0}, {}));
  // Noise rows only.
  outcome.entities.push_back(NewEntity({-1, -1}, {}));
  const Quality quality = Evaluate({outcome}, MakeWorld());
  EXPECT_EQ(quality.classes[0].returned_new, 3u);
  EXPECT_EQ(quality.classes[0].correct_new, 0u);
  EXPECT_DOUBLE_EQ(quality.new_entity_f1, 0.0);
}

TEST(EvaluateTest, WrongFactValueLowersPrecision) {
  ClassOutcome outcome = MakeClass({{1, 1}, {2, 1}});
  // Entity 1's year is 1991 (right); entity 2's is 1992, not 1800.
  outcome.entities.push_back(NewEntity({1}, {YearFact(1991.0)}));
  outcome.entities.push_back(NewEntity({2}, {YearFact(1800.0)}));
  // Facts of an entity that is not a correctly found new one do not count.
  EntityOutcome existing;
  existing.row_world = {0};
  existing.facts = {YearFact(1.0)};
  outcome.entities.push_back(existing);
  const Quality quality = Evaluate({outcome}, MakeWorld());
  EXPECT_EQ(quality.classes[0].facts, 2u);
  EXPECT_EQ(quality.classes[0].correct_facts, 1u);
  EXPECT_DOUBLE_EQ(quality.new_fact_precision, 0.5);
  EXPECT_DOUBLE_EQ(quality.new_entity_f1, 1.0);
}

TEST(EvaluateTest, ClassesAreAveraged) {
  ClassOutcome perfect = MakeClass({});
  perfect.cluster_of_row = {0, 0};
  perfect.row_world = {1, 1};
  ClassOutcome singletons = MakeClass({});
  singletons.cluster_of_row = {0, 1};
  singletons.row_world = {2, 2};
  const Quality quality = Evaluate({perfect, singletons}, MakeWorld());
  EXPECT_DOUBLE_EQ(quality.cluster_pair_f1, 0.5);
}

}  // namespace
}  // namespace kbbench
