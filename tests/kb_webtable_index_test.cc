#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>

#include "index/label_index.h"
#include "kb/knowledge_base.h"
#include "util/similarity.h"
#include "webtable/web_table.h"

namespace ltee {
namespace {

// ---------------------------------------------------------------------------
// KnowledgeBase
// ---------------------------------------------------------------------------

class KnowledgeBaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    agent_ = kb_.AddClass("Agent");
    athlete_ = kb_.AddClass("Athlete", agent_);
    player_ = kb_.AddClass("GridironFootballPlayer", athlete_);
    musician_ = kb_.AddClass("Musician", athlete_);  // sibling of player
    team_prop_ = kb_.AddProperty(player_, "team",
                                 types::DataType::kInstanceReference, {"Club"});
    height_prop_ =
        kb_.AddProperty(player_, "height", types::DataType::kQuantity);
    a_ = kb_.AddInstance(player_, {"John Smith"}, 10.0);
    b_ = kb_.AddInstance(player_, {"Jane Doe", "J. Doe"}, 20.0);
    kb_.AddFact(a_, team_prop_,
                types::Value::InstanceRef("dallas cowboys"));
    kb_.AddFact(a_, height_prop_, types::Value::OfQuantity(190));
    kb_.AddFact(b_, team_prop_, types::Value::InstanceRef("chicago bears"));
  }

  kb::KnowledgeBase kb_;
  kb::ClassId agent_, athlete_, player_, musician_;
  kb::PropertyId team_prop_, height_prop_;
  kb::InstanceId a_, b_;
};

TEST_F(KnowledgeBaseTest, SchemaAccessors) {
  EXPECT_EQ(kb_.num_classes(), 4u);
  EXPECT_EQ(kb_.num_properties(), 2u);
  EXPECT_EQ(kb_.FindClass("Athlete"), athlete_);
  EXPECT_EQ(kb_.FindClass("Nope"), kb::kInvalidClass);
  EXPECT_EQ(kb_.FindProperty(player_, "team"), team_prop_);
  EXPECT_EQ(kb_.FindProperty(player_, "nope"), kb::kInvalidProperty);
  // Property labels include the normalized name and synonyms.
  EXPECT_EQ(kb_.property(team_prop_).labels.front(), "team");
  EXPECT_EQ(kb_.property(team_prop_).labels.back(), "club");
}

TEST_F(KnowledgeBaseTest, InstanceAndFactAccess) {
  EXPECT_EQ(kb_.num_instances(), 2u);
  EXPECT_EQ(kb_.InstancesOfClass(player_).size(), 2u);
  ASSERT_NE(kb_.FactOf(a_, team_prop_), nullptr);
  EXPECT_EQ(kb_.FactOf(a_, team_prop_)->text, "dallas cowboys");
  EXPECT_EQ(kb_.FactOf(b_, height_prop_), nullptr);
}

TEST_F(KnowledgeBaseTest, AncestorsMostSpecificFirst) {
  const auto ancestors = kb_.Ancestors(player_);
  ASSERT_EQ(ancestors.size(), 3u);
  EXPECT_EQ(ancestors[0], player_);
  EXPECT_EQ(ancestors[1], athlete_);
  EXPECT_EQ(ancestors[2], agent_);
}

TEST_F(KnowledgeBaseTest, ClassCompatibility) {
  EXPECT_TRUE(kb_.ClassesCompatible(player_, player_));
  EXPECT_TRUE(kb_.ClassesCompatible(player_, athlete_));  // ancestor
  EXPECT_TRUE(kb_.ClassesCompatible(athlete_, player_));
  EXPECT_TRUE(kb_.ClassesCompatible(player_, musician_));  // shared parent
  EXPECT_TRUE(kb_.ClassesCompatible(agent_, agent_));
}

TEST_F(KnowledgeBaseTest, ClassOverlapIsJaccardOfAncestors) {
  EXPECT_DOUBLE_EQ(kb_.ClassOverlap(player_, player_), 1.0);
  // player {P,Ath,Ag} vs musician {M,Ath,Ag}: 2 shared of 4 distinct.
  EXPECT_DOUBLE_EQ(kb_.ClassOverlap(player_, musician_), 0.5);
}

TEST_F(KnowledgeBaseTest, Statistics) {
  const auto stats = kb_.StatsOfClass(player_);
  EXPECT_EQ(stats.instances, 2u);
  EXPECT_EQ(stats.facts, 3u);
  const auto team_stats = kb_.StatsOfProperty(team_prop_);
  EXPECT_EQ(team_stats.facts, 2u);
  EXPECT_DOUBLE_EQ(team_stats.density, 1.0);
  const auto height_stats = kb_.StatsOfProperty(height_prop_);
  EXPECT_DOUBLE_EQ(height_stats.density, 0.5);
}

// ---------------------------------------------------------------------------
// TableCorpus
// ---------------------------------------------------------------------------

TEST(TableCorpusTest, AddAssignsIdsAndStats) {
  webtable::TableCorpus corpus;
  webtable::WebTable t1;
  t1.headers = {"Name", "Team"};
  t1.rows = {{"a", "x"}, {"b", "y"}, {"c", "z"}};
  webtable::WebTable t2;
  t2.headers = {"Name", "Pop", "Country"};
  t2.rows = {{"d", "1", "u"}};
  EXPECT_EQ(corpus.Add(std::move(t1)), 0);
  EXPECT_EQ(corpus.Add(std::move(t2)), 1);
  EXPECT_EQ(corpus.TotalRows(), 4u);
  EXPECT_EQ(corpus.cell({0, 1}, 1), "y");

  const auto stats = corpus.Stats();
  EXPECT_EQ(stats.num_tables, 2u);
  EXPECT_DOUBLE_EQ(stats.rows.average, 2.0);
  EXPECT_DOUBLE_EQ(stats.rows.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.rows.max, 3.0);
  EXPECT_DOUBLE_EQ(stats.columns.average, 2.5);
}

TEST(RowRefTest, Ordering) {
  webtable::RowRef a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (webtable::RowRef{1, 2}));
}

// ---------------------------------------------------------------------------
// LabelIndex
// ---------------------------------------------------------------------------

TEST(LabelIndexTest, ExactLabelRanksFirst) {
  index::LabelIndex index;
  index.Add(0, "Springfield");
  index.Add(1, "North Springfield");
  index.Add(2, "Tokyo");
  index.Build();
  auto hits = index.Search("Springfield", 10);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0].doc, 0u);
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(LabelIndexTest, NoSharedTokensNoHits) {
  index::LabelIndex index;
  index.Add(0, "Springfield");
  index.Build();
  EXPECT_TRUE(index.Search("Tokyo", 5).empty());
}

TEST(LabelIndexTest, MultiLabelDocScoredByBestLabel) {
  index::LabelIndex index;
  index.Add(0, "J. Doe");
  index.Add(0, "Jane Doe");
  index.Add(1, "Jane Roe");
  index.Build();
  auto hits = index.Search("Jane Doe", 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc, 0u);
}

TEST(LabelIndexTest, KLimitsResults) {
  index::LabelIndex index;
  for (uint32_t i = 0; i < 20; ++i) {
    index.Add(i, "common token" + std::to_string(i));
  }
  index.Build();
  EXPECT_EQ(index.Search("common", 5).size(), 5u);
}

// The raw-string Search overload and the pre-tokenized span overload must
// agree exactly: the serving layer feeds interned query tokens straight to
// the span overload and relies on it ranking identically to the string path.
TEST(LabelIndexTest, StringAndTokenSearchOverloadsAgree) {
  index::LabelIndex index;
  index.Add(0, "Jane Doe");
  index.Add(0, "J. Doe");       // alias for the same doc
  index.Add(1, "Jane Roe");
  index.Add(2, "John Doe Jr");
  index.Add(3, "Tokyo Tower");
  index.Add(4, "tokyo  tower");  // normalizes to a duplicate label
  index.Build();

  const std::string queries[] = {
      "Jane Doe",          // multi-token, multiple candidates
      "doe",               // single shared token
      "Tokyo",             // token shared by duplicate labels
      "jane unknowntoken", // partially out-of-vocabulary
      "unknowntoken",      // fully out-of-vocabulary
      "",                  // empty query
      "doe doe jane",      // duplicate query tokens, shuffled order
  };
  for (const std::string& query : queries) {
    const auto via_string = index.Search(query, 10);
    // Same tokenization the string overload applies, mapped through the
    // index's own dictionary; kNoToken entries are kept — the overload
    // must skip them itself.
    const std::vector<uint32_t> token_ids =
        index.dict().FindTokens(query);
    const auto via_tokens =
        index.Search(std::span<const uint32_t>(token_ids), 10);

    ASSERT_EQ(via_tokens.size(), via_string.size()) << "query: " << query;
    for (size_t i = 0; i < via_string.size(); ++i) {
      EXPECT_EQ(via_tokens[i].doc, via_string[i].doc)
          << "query: " << query << " hit " << i;
      EXPECT_DOUBLE_EQ(via_tokens[i].score, via_string[i].score)
          << "query: " << query << " hit " << i;
    }
  }
}

// BestLabelSimilarity must equal the explicit max of Monge-Elkan over the
// labels of the instance, looked up one by one.
TEST_F(KnowledgeBaseTest, BestLabelSimilarityEqualsLoopOverInstanceLabels) {
  auto dict = std::make_shared<util::TokenDictionary>();
  index::LabelIndex index(dict);
  const int n = static_cast<int>(kb_.num_instances());
  for (int i = 0; i < n; ++i) {
    for (const auto& label : kb_.instance(i).labels) {
      index.Add(static_cast<uint32_t>(i), label);
    }
  }
  index.Build();

  const std::string queries[] = {"Jane Doe", "J Doe",  "Jon Smith",
                                 "doe jane", "Unseen", ""};
  for (const std::string& query : queries) {
    const std::vector<uint32_t> tokens = dict->InternTokens(query);
    for (int i = 0; i < n; ++i) {
      double expected = 0.0;
      for (const auto& label : kb_.instance(i).labels) {
        expected = std::max(expected, util::MongeElkanLevenshtein(
                                          tokens, dict->FindTokens(label),
                                          *dict));
      }
      EXPECT_EQ(index.BestLabelSimilarity(tokens, static_cast<uint32_t>(i)),
                expected)
          << "query: " << query << " instance " << i;
    }
    EXPECT_EQ(index.BestLabelSimilarity(tokens, 999), 0.0);  // no labels
  }
}

TEST(LabelIndexTest, BlocksAreDistinctNormalizedLabels) {
  index::LabelIndex index;
  index.Add(0, "New York");
  index.Add(1, "new  york!");  // same normalized label
  index.Add(2, "Boston");
  index.Build();
  EXPECT_EQ(index.num_blocks(), 2u);
  EXPECT_EQ(index.BlockOf("NEW YORK"), index.BlockOf("new york"));
  EXPECT_NE(index.BlockOf("Boston"), index.BlockOf("new york"));
  EXPECT_EQ(index.BlockOf("unseen label"), -1);
}

}  // namespace
}  // namespace ltee
