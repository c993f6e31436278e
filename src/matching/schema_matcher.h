#ifndef LTEE_MATCHING_SCHEMA_MATCHER_H_
#define LTEE_MATCHING_SCHEMA_MATCHER_H_

#include <array>
#include <unordered_map>
#include <vector>

#include "index/label_index.h"
#include "kb/knowledge_base.h"
#include "matching/attribute_matchers.h"
#include "matching/schema_mapping.h"
#include "matching/table_to_class.h"
#include "ml/genetic.h"
#include "util/random.h"
#include "webtable/prepared_corpus.h"
#include "webtable/web_table.h"

namespace ltee::matching {

/// Configuration of the schema matching component.
struct SchemaMatcherOptions {
  TableToClassOptions table_to_class;
  /// Threshold applied to properties without a learned threshold.
  double default_threshold = 0.45;
  /// GA settings for weight learning (kept small; 5-dimensional search).
  ml::GeneticOptions genetic = {.population_size = 32, .generations = 30};
};

/// Pipeline feedback consumed by the second iteration: the duplicate-based
/// matchers require row-to-instance correspondences (new detection), row
/// clusters (row clustering), and the preliminary mapping of iteration 1.
struct MatcherFeedback {
  const RowInstanceMap* row_instances = nullptr;
  const RowClusterMap* row_clusters = nullptr;
  const SchemaMapping* preliminary = nullptr;
};

/// Ground-truth attribute correspondence used for learning.
struct AttributeAnnotation {
  webtable::TableId table = -1;
  int column = -1;
  kb::PropertyId property = kb::kInvalidProperty;
};

/// The complete schema-matching component (Section 3.1): data-type
/// detection, label attribute detection, table-to-class matching, and
/// attribute-to-property matching with five matchers aggregated by
/// per-class learned weights and per-property learned thresholds.
class SchemaMatcher {
 public:
  /// `kb_index` must be a label index over KB instances (doc = instance id)
  /// and outlive this matcher.
  SchemaMatcher(const kb::KnowledgeBase& kb, const index::LabelIndex& kb_index,
                SchemaMatcherOptions options = {});

  /// Learns per-class matcher weights (genetic algorithm maximizing
  /// attribute-matching F1) and per-property decision thresholds from
  /// `annotations` over `learning_tables`. GA fitness runs on `pool`
  /// (inline when null); the learned weights do not depend on its size.
  void Learn(const webtable::PreparedCorpus& prepared,
             const std::vector<webtable::TableId>& learning_tables,
             const std::vector<AttributeAnnotation>& annotations,
             const MatcherFeedback& feedback, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  /// Matches every table of the prepared corpus. Pass an empty feedback on
  /// the first iteration; the duplicate-based matchers activate
  /// automatically when feedback is present. The prepared corpus must share
  /// the KB index's token dictionary.
  SchemaMapping Match(const webtable::PreparedCorpus& prepared,
                      const MatcherFeedback& feedback = {}) const;

  /// Matches a single table (the corpus is still needed to identify it).
  TableMapping MatchTable(const webtable::PreparedCorpus& prepared,
                          webtable::TableId table,
                          const MatcherFeedback& feedback = {}) const;

  /// Average learned weight per matcher across classes (reported in the
  /// paper's Section 3.1 discussion).
  std::array<double, kNumMatchers> AverageWeights() const;

  const kb::KnowledgeBase& knowledge_base() const { return *kb_; }

 private:
  struct Prepared {
    WtLabelStats wt_label;
    WtDuplicateIndex wt_duplicate;
    MatcherInputs inputs;
  };

  Prepared PrepareInputs(const webtable::PreparedCorpus& prepared,
                         const MatcherFeedback& feedback) const;
  TableMapping MatchTableImpl(const webtable::PreparedTable& table,
                              const MatcherInputs& inputs) const;
  double Aggregate(kb::ClassId cls,
                   const std::array<double, kNumMatchers>& scores) const;
  double ThresholdOf(kb::PropertyId property) const;

  const kb::KnowledgeBase* kb_;
  const index::LabelIndex* kb_index_;
  SchemaMatcherOptions options_;
  std::vector<PropertyValueProfile> value_profiles_;
  std::unordered_map<kb::ClassId, std::array<double, kNumMatchers>> weights_;
  std::unordered_map<kb::PropertyId, double> thresholds_;
};

}  // namespace ltee::matching

#endif  // LTEE_MATCHING_SCHEMA_MATCHER_H_
