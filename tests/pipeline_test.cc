#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "pipeline/run_summary.h"
#include "pipeline/training.h"
#include "test_dataset.h"

namespace ltee::pipeline {
namespace {

using ::ltee::testing::SharedDataset;

TEST(GoldArtifactsTest, GoldMappingReflectsAnnotations) {
  const auto& ds = SharedDataset();
  const auto& gs = ds.gold.front();
  auto mapping = GoldSchemaMapping(ds.gs_corpus, gs);
  ASSERT_EQ(mapping.tables.size(), ds.gs_corpus.size());
  for (const auto& attr : gs.attributes) {
    const auto& tm = mapping.tables[attr.table];
    EXPECT_EQ(tm.cls, gs.cls);
    EXPECT_EQ(tm.columns[attr.column].property, attr.property);
  }
  // Tables of other classes stay unmapped.
  size_t mapped = 0;
  for (const auto& tm : mapping.tables) mapped += tm.table >= 0 ? 1 : 0;
  EXPECT_EQ(mapped, gs.tables.size());
}

TEST(GoldArtifactsTest, RowInstancesOnlyForExistingClusters) {
  const auto& ds = SharedDataset();
  const auto& gs = ds.gold.front();
  auto instances = GoldRowInstances(gs);
  for (const auto& cluster : gs.clusters) {
    for (const auto& row : cluster.rows) {
      if (cluster.is_new) {
        EXPECT_EQ(instances.count(row), 0u);
      } else {
        ASSERT_EQ(instances.count(row), 1u);
        EXPECT_EQ(instances[row], cluster.kb_instance);
      }
    }
  }
}

TEST(GoldArtifactsTest, RowClustersOffsetApplied) {
  const auto& ds = SharedDataset();
  const auto& gs = ds.gold.front();
  auto clusters = GoldRowClusters(gs, 1000);
  for (const auto& [row, cluster] : clusters) {
    EXPECT_GE(cluster, 1000);
    EXPECT_LT(cluster, 1000 + static_cast<int>(gs.clusters.size()));
  }
}

TEST(KbLabelIndexTest, FindsInstancesByLabel) {
  const auto& ds = SharedDataset();
  auto index = BuildKbLabelIndex(ds.kb);
  const auto& instance = ds.kb.instances().front();
  auto hits = index.Search(instance.labels.front(), 5);
  ASSERT_FALSE(hits.empty());
  bool found = false;
  for (const auto& hit : hits) {
    if (static_cast<kb::InstanceId>(hit.doc) == instance.id) found = true;
  }
  EXPECT_TRUE(found);
}

/// End-to-end: trained pipeline over the gold-standard corpus.
struct TrainedRun {
  std::unique_ptr<LteePipeline> pipeline;
  PipelineRunResult run;
};

/// Trains on the shared dataset's gold standard (Rng 41, the golden seed)
/// and runs every gold class over the gold-standard corpus.
std::unique_ptr<TrainedRun> TrainAndRun(PipelineOptions options) {
  const auto& ds = SharedDataset();
  auto s = std::make_unique<TrainedRun>();
  s->pipeline = std::make_unique<LteePipeline>(ds.kb, options);
  util::Rng rng(41);
  TrainPipelineOnGold(s->pipeline.get(), ds.gs_corpus, ds.gold, rng);
  std::vector<kb::ClassId> classes;
  for (const auto& gs : ds.gold) classes.push_back(gs.cls);
  s->run = s->pipeline->Run(ds.gs_corpus, classes);
  return s;
}

/// Built once with default options.
const TrainedRun& SharedRun() {
  static const TrainedRun* state = TrainAndRun({}).release();
  return *state;
}

TEST(PipelineTest, RunProducesOneMappingPerIteration) {
  const auto& run = SharedRun().run;
  EXPECT_EQ(run.mappings.size(), 2u);
  EXPECT_EQ(run.classes.size(), 3u);
}

TEST(PipelineTest, ClassResultsAreInternallyConsistent) {
  const auto& run = SharedRun().run;
  for (const auto& class_run : run.classes) {
    EXPECT_EQ(class_run.cluster_of_row.size(), class_run.rows.rows.size());
    EXPECT_EQ(class_run.detections.size(), class_run.entities.size());
    std::set<int> clusters(class_run.cluster_of_row.begin(),
                           class_run.cluster_of_row.end());
    EXPECT_EQ(static_cast<int>(clusters.size()), class_run.num_clusters);
    for (const auto& entity : class_run.entities) {
      EXPECT_EQ(entity.cls, class_run.cls);
      EXPECT_FALSE(entity.rows.empty());
    }
  }
}

TEST(PipelineTest, SecondIterationMatchesAtLeastAsManyColumns) {
  const auto& run = SharedRun().run;
  auto count_matched = [](const matching::SchemaMapping& mapping) {
    size_t matched = 0;
    for (const auto& tm : mapping.tables) {
      for (const auto& col : tm.columns) {
        matched += col.property != kb::kInvalidProperty ? 1 : 0;
      }
    }
    return matched;
  };
  // The duplicate-based matchers add signals; the refined mapping should
  // not collapse.
  EXPECT_GE(count_matched(run.mappings[1]) * 10,
            count_matched(run.mappings[0]) * 7);
}

TEST(PipelineTest, DetectionsFindBothNewAndExisting) {
  const auto& run = SharedRun().run;
  size_t new_count = 0, existing_count = 0;
  for (const auto& class_run : run.classes) {
    for (const auto& detection : class_run.detections) {
      (detection.is_new ? new_count : existing_count) += 1;
    }
  }
  EXPECT_GT(new_count, 0u);
  EXPECT_GT(existing_count, 0u);
}

TEST(PipelineTest, FeedbackMapsCoverClusteredRows) {
  const auto& run = SharedRun().run;
  matching::RowInstanceMap instances;
  matching::RowClusterMap clusters;
  LteePipeline::CollectFeedback(run.classes, &instances, &clusters);
  size_t total_rows = 0;
  for (const auto& class_run : run.classes) {
    total_rows += class_run.rows.rows.size();
  }
  EXPECT_EQ(clusters.size(), total_rows);
  EXPECT_LE(instances.size(), total_rows);
  EXPECT_GT(instances.size(), 0u);
}

std::string GoldenPath() {
  return std::string(LTEE_GOLDEN_DIR) + "/pipeline_summary.txt";
}

/// Compares `summary` with the checked-in golden summary, reporting the
/// first divergence rather than dumping half a megabyte of text.
void ExpectMatchesGolden(const std::string& summary) {
  const std::string golden_path = GoldenPath();
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden summary: " << golden_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();
  ASSERT_EQ(summary.size(), golden.size())
      << "summary size drifted; run tools/golden_pipeline or set "
         "LTEE_REGEN_GOLDEN=1 if the change is intentional";
  if (summary != golden) {
    size_t pos = 0;
    while (pos < summary.size() && summary[pos] == golden[pos]) ++pos;
    const size_t line = 1 + static_cast<size_t>(std::count(
                                golden.begin(), golden.begin() + pos, '\n'));
    FAIL() << "summary diverges from golden at byte " << pos << " (line "
           << line << ")";
  }
}

// Golden regression: the fixed-seed run must stay byte-identical to the
// checked-in summary (tools/golden_pipeline regenerates it; see also
// LTEE_REGEN_GOLDEN below). This pins down the determinism contract of the
// prepared-corpus layer and the parallel per-class execution: interning
// order and thread schedule must not leak into results.
TEST(PipelineTest, RunMatchesGoldenSummary) {
  const std::string summary = SummarizeRun(SharedRun().run);
  if (std::getenv("LTEE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary);
    out << summary;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  ExpectMatchesGolden(summary);
}

// Training and the class sweep share the pipeline pool; neither may let the
// pool size leak into results.
TEST(PipelineTest, GoldenSummaryIndependentOfThreadCount) {
  for (int num_threads : {1, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(num_threads));
    PipelineOptions options;
    options.num_threads = num_threads;
    ExpectMatchesGolden(SummarizeRun(TrainAndRun(options)->run));
  }
}

}  // namespace
}  // namespace ltee::pipeline
