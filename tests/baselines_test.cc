#include <gtest/gtest.h>

#include "baselines/row_matching.h"
#include "baselines/set_expansion.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "test_dataset.h"

namespace ltee::baselines {
namespace {

using ::ltee::testing::SharedDataset;

// ---------------------------------------------------------------------------
// Set expansion
// ---------------------------------------------------------------------------

TEST(SetExpansionTest, RanksCoOccurringLabelsFirst) {
  webtable::TableCorpus corpus;
  // Table 0: seed + a, b.  Table 1: seed + a.  Table 2: b + c (no seed).
  webtable::WebTable t0;
  t0.headers = {"Name"};
  t0.rows = {{"Seed"}, {"Alpha"}, {"Beta"}};
  webtable::WebTable t1;
  t1.headers = {"Name"};
  t1.rows = {{"Seed"}, {"Alpha"}};
  webtable::WebTable t2;
  t2.headers = {"Name"};
  t2.rows = {{"Beta"}, {"Gamma"}};
  corpus.Add(std::move(t0));
  corpus.Add(std::move(t1));
  corpus.Add(std::move(t2));

  SetExpander expander(corpus, {0, 0, 0});
  auto result = expander.Expand({"Seed"});
  ASSERT_GE(result.size(), 2u);
  EXPECT_EQ(result[0].label, "alpha");  // co-occurs twice
  EXPECT_EQ(result[1].label, "beta");   // co-occurs once
  // Gamma never co-occurs with a seed.
  for (const auto& candidate : result) {
    EXPECT_NE(candidate.label, "gamma");
    EXPECT_NE(candidate.label, "seed");  // seeds excluded
  }
}

TEST(SetExpansionTest, CutoffLimitsResults) {
  webtable::TableCorpus corpus;
  webtable::WebTable t;
  t.headers = {"Name"};
  t.rows.push_back({"Seed"});
  for (int i = 0; i < 50; ++i) {
    t.rows.push_back({"Label " + std::to_string(i)});
  }
  corpus.Add(std::move(t));
  SetExpansionOptions options;
  options.cutoff = 10;
  SetExpander expander(corpus, {0}, options);
  EXPECT_EQ(expander.Expand({"Seed"}).size(), 10u);
}

TEST(SetExpansionTest, FindsLongTailEntitiesOnSyntheticData) {
  const auto& ds = SharedDataset();
  std::vector<int> label_columns(ds.corpus.size(), -1);
  for (size_t t = 0; t < ds.table_truth.size(); ++t) {
    label_columns[t] = ds.table_truth[t].label_column;
  }
  SetExpander expander(ds.corpus, label_columns);
  // Seeds: popular Song-class KB entities.
  const int pi = ds.gold_profile[1];
  std::vector<std::string> seeds;
  for (int eid : ds.world.EntitiesOfProfile(pi)) {
    if (ds.world.entity(eid).in_kb && seeds.size() < 5) {
      seeds.push_back(ds.world.entity(eid).label);
    }
  }
  auto result = expander.Expand(seeds);
  EXPECT_FALSE(result.empty());
  // Scores are sorted descending.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i - 1].score, result[i].score);
  }
}

// ---------------------------------------------------------------------------
// Direct row-to-instance matching
// ---------------------------------------------------------------------------

TEST(RowMatchingTest, ResolvesCleanRowsAndSkipsUnknowns) {
  kb::KnowledgeBase kb;
  auto cls = kb.AddClass("C");
  auto team = kb.AddProperty(cls, "team", types::DataType::kInstanceReference);
  auto a = kb.AddInstance(cls, {"John Smith"});
  kb.AddFact(a, team, types::Value::InstanceRef("dallas cowboys"));
  auto b = kb.AddInstance(cls, {"Jane Doe"});
  kb.AddFact(b, team, types::Value::InstanceRef("chicago bears"));
  auto index = pipeline::BuildKbLabelIndex(kb);

  webtable::WebTable table;
  table.id = 0;
  table.headers = {"Name", "Team"};
  table.rows = {{"John Smith", "Dallas Cowboys"},
                {"Jane Doe", "Chicago Bears"},
                {"Nobody Known", "Dallas Cowboys"}};
  matching::TableMapping mapping;
  mapping.table = 0;
  mapping.label_column = 0;
  mapping.columns.resize(2);
  mapping.columns[1].property = team;

  RowInstanceMatcher matcher(kb, index);
  auto matches = matcher.MatchTable(table, mapping);
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].instance, a);
  EXPECT_EQ(matches[1].instance, b);
  EXPECT_EQ(matches[2].instance, kb::kInvalidInstance);
}

TEST(RowMatchingTest, ConflictingValuesLowerTheScore) {
  kb::KnowledgeBase kb;
  auto cls = kb.AddClass("C");
  auto team = kb.AddProperty(cls, "team", types::DataType::kInstanceReference);
  auto a = kb.AddInstance(cls, {"John Smith"});
  kb.AddFact(a, team, types::Value::InstanceRef("dallas cowboys"));
  auto index = pipeline::BuildKbLabelIndex(kb);

  webtable::WebTable table;
  table.id = 0;
  table.headers = {"Name", "Team"};
  table.rows = {{"John Smith", "Dallas Cowboys"},
                {"John Smith", "Green Bay Packers"}};
  matching::TableMapping mapping;
  mapping.table = 0;
  mapping.label_column = 0;
  mapping.columns.resize(2);
  mapping.columns[1].property = team;

  RowInstanceMatcher matcher(kb, index);
  auto matches = matcher.MatchTable(table, mapping);
  // The agreeing row matches; the conflicting row's combined score falls
  // below the threshold.
  EXPECT_EQ(matches[0].instance, a);
  EXPECT_GT(matches[0].score, matches[1].score);
  EXPECT_EQ(matches[1].instance, kb::kInvalidInstance);
}

TEST(RowMatchingTest, MostExistingGoldRowsResolve) {
  const auto& ds = SharedDataset();
  auto index = pipeline::BuildKbLabelIndex(ds.kb);
  RowInstanceMatcher matcher(ds.kb, index);
  const auto& gs = ds.gold.front();
  auto mapping = pipeline::GoldSchemaMapping(ds.gs_corpus, gs);
  auto truth = pipeline::GoldRowInstances(gs);
  size_t correct = 0;
  for (webtable::TableId tid : gs.tables) {
    auto matches = matcher.MatchTable(ds.gs_corpus.table(tid),
                                      mapping.of(tid));
    for (const auto& match : matches) {
      auto it = truth.find(match.row);
      if (it != truth.end() && match.instance == it->second) ++correct;
    }
  }
  ASSERT_FALSE(truth.empty());
  EXPECT_GT(static_cast<double>(correct) / truth.size(), 0.5);
}

}  // namespace
}  // namespace ltee::baselines
