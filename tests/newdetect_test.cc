#include <gtest/gtest.h>

#include <numeric>

#include "newdetect/new_detector.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "rowcluster/row_features.h"
#include "test_dataset.h"

namespace ltee::newdetect {
namespace {

using ::ltee::testing::SharedDataset;

/// Entities created 1:1 from the gold clusters of one class, plus labels.
struct GoldEntities {
  index::LabelIndex kb_index;
  std::vector<fusion::CreatedEntity> entities;
  std::vector<DetectionLabel> labels;
};

const GoldEntities& SharedGoldEntities() {
  static const GoldEntities* state = [] {
    const auto& ds = SharedDataset();
    auto* s = new GoldEntities;
    auto dict = std::make_shared<util::TokenDictionary>();
    s->kb_index = pipeline::BuildKbLabelIndex(ds.kb, dict);
    webtable::PreparedCorpus prepared(ds.gs_corpus, dict);
    auto mapping = pipeline::GoldSchemaMapping(ds.gs_corpus, ds.gold);
    const auto& gs = ds.gold.front();
    auto rows = rowcluster::BuildClassRowSet(prepared, mapping, gs.cls,
                                             ds.kb, s->kb_index);
    std::vector<int> clusters(gs.clusters.size());
    std::iota(clusters.begin(), clusters.end(), 0);
    auto gold = pipeline::GoldClusterEntities(
        rows, gs, clusters, mapping, fusion::EntityCreator(ds.kb), prepared);
    s->entities = std::move(gold.entities);
    for (int g : gold.clusters) {
      s->labels.push_back({gs.clusters[g].is_new, gs.clusters[g].kb_instance});
    }
    return s;
  }();
  return *state;
}

TEST(NewDetectorTest, CandidatesAreClassCompatibleAndLabelSimilar) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldEntities();
  NewDetector detector(ds.kb, state.kb_index);
  size_t with_candidates = 0;
  for (const auto& entity : state.entities) {
    auto candidates = detector.Candidates(entity);
    for (kb::InstanceId id : candidates) {
      EXPECT_TRUE(
          ds.kb.ClassesCompatible(entity.cls, ds.kb.instance(id).cls));
    }
    if (!candidates.empty()) ++with_candidates;
  }
  // Existing entities must essentially always have candidates.
  size_t existing = 0, existing_with = 0;
  for (size_t e = 0; e < state.entities.size(); ++e) {
    if (state.labels[e].is_new) continue;
    ++existing;
    if (!detector.Candidates(state.entities[e]).empty()) ++existing_with;
  }
  ASSERT_GT(existing, 0u);
  EXPECT_GT(static_cast<double>(existing_with) / existing, 0.9);
}

TEST(NewDetectorTest, CompareProducesEnabledFeatureVector) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldEntities();
  NewDetectorOptions options;
  options.enabled_metrics = FirstKEntityMetrics(3);  // LABEL, TYPE, BOW
  NewDetector detector(ds.kb, state.kb_index, options);
  // Find an entity with a candidate.
  for (const auto& entity : state.entities) {
    auto candidates = detector.Candidates(entity);
    if (candidates.empty()) continue;
    auto f = detector.Compare(entity, candidates.front(), 1.0);
    ASSERT_EQ(f.sims.size(), 3u);
    EXPECT_GE(f.sims[0], 0.0);  // LABEL
    EXPECT_LE(f.sims[0], 1.0);
    EXPECT_GE(f.sims[1], 0.0);  // TYPE overlap
    return;
  }
  FAIL() << "no entity had candidates";
}

TEST(NewDetectorTest, SelfComparisonOfExistingEntityScoresHigh) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldEntities();
  NewDetector detector(ds.kb, state.kb_index);
  for (size_t e = 0; e < state.entities.size(); ++e) {
    if (state.labels[e].is_new) continue;
    auto f = detector.Compare(state.entities[e], state.labels[e].instance, 1.0);
    // LABEL similarity against the true instance should be near-perfect.
    EXPECT_GT(f.sims[0], 0.8);
    return;
  }
}

TEST(NewDetectorTest, TrainedDetectorBeatsChance) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldEntities();
  NewDetector detector(ds.kb, state.kb_index);
  util::Rng rng(31);
  detector.Train(state.entities, state.labels, rng);
  auto detections = detector.Detect(state.entities);
  ASSERT_EQ(detections.size(), state.entities.size());
  int correct = 0;
  for (size_t e = 0; e < detections.size(); ++e) {
    if (detections[e].is_new == state.labels[e].is_new) ++correct;
  }
  // In-sample accuracy should be clearly above the majority baseline.
  EXPECT_GT(static_cast<double>(correct) / detections.size(), 0.7);
  EXPECT_GE(detector.match_threshold(), detector.new_threshold());
}

TEST(NewDetectorTest, MatchedInstancesAreCorrectMostOfTheTime) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldEntities();
  NewDetector detector(ds.kb, state.kb_index);
  util::Rng rng(32);
  detector.Train(state.entities, state.labels, rng);
  auto detections = detector.Detect(state.entities);
  int matched = 0, correct = 0;
  for (size_t e = 0; e < detections.size(); ++e) {
    if (detections[e].is_new ||
        detections[e].instance == kb::kInvalidInstance) {
      continue;
    }
    ++matched;
    if (!state.labels[e].is_new &&
        detections[e].instance == state.labels[e].instance) {
      ++correct;
    }
  }
  ASSERT_GT(matched, 0);
  EXPECT_GT(static_cast<double>(correct) / matched, 0.6);
}

TEST(NewDetectorTest, EntityWithoutCandidatesIsNew) {
  const auto& ds = SharedDataset();
  const auto& state = SharedGoldEntities();
  NewDetector detector(ds.kb, state.kb_index);
  fusion::CreatedEntity entity;
  entity.cls = ds.gold.front().cls;
  entity.labels = {"zxqwv nonexistent zzz"};
  auto detections = detector.Detect({entity});
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_TRUE(detections[0].is_new);
  EXPECT_EQ(detections[0].instance, kb::kInvalidInstance);
  EXPECT_DOUBLE_EQ(detections[0].best_score, -1.0);
}

TEST(NewDetectorTest, MetricNamesAndMasks) {
  EXPECT_STREQ(EntityMetricName(EntityMetric::kPopularity), "POPULARITY");
  auto mask = FirstKEntityMetrics(2);
  EXPECT_EQ(mask, (std::vector<bool>{true, true, false, false, false, false}));
}

}  // namespace
}  // namespace ltee::newdetect
