// Truth-based quality of a finished run: the pairwise F1 of the row
// clusters, the Table 9 new-entity F1 and the precision of the facts of
// correctly found new entities, all measured against the synthetic world
// instead of an annotated gold standard.
#ifndef KBBENCH_QUALITY_H_
#define KBBENCH_QUALITY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"
#include "pipeline/pipeline.h"
#include "synth/dataset.h"

namespace kbbench {

/// Row pairs placed together by a clustering, by the reference, and by
/// both. Computed from the contingency table of the two labellings.
struct PairCounts {
  uint64_t both = 0;
  uint64_t predicted = 0;
  uint64_t truth = 0;
};

/// Counts pairs of two parallel labellings. A negative label marks a row
/// that shares its cluster with nobody.
PairCounts CountPairs(const std::vector<int>& predicted,
                      const std::vector<int>& truth);

/// Pairwise F1; 1 when neither labelling puts any two rows together.
double PairF1(const PairCounts& counts);

/// One created entity, reduced to what the evaluation needs.
struct EntityOutcome {
  bool is_new = false;
  /// World entity of each source row (-1 for noise rows).
  std::vector<int> row_world;
  std::vector<ltee::kb::Fact> facts;
};

/// One class of a finished run, next to its truth.
struct ClassOutcome {
  /// World profile the class was generated from.
  int profile = -1;
  /// Final cluster of each clustered row and the row's world entity.
  std::vector<int> cluster_of_row;
  std::vector<int> row_world;
  /// Rows per world entity over every corpus table about the class: the
  /// reference clusters of Table 9, whether or not matching kept them.
  std::unordered_map<int, int> universe;
  /// KB property -> index into the profile's truth values.
  std::unordered_map<ltee::kb::PropertyId, int> property_slot;
  std::vector<EntityOutcome> entities;
};

/// Tallies of one class.
struct ClassQuality {
  PairCounts pairs;
  size_t returned_new = 0;
  size_t correct_new = 0;
  /// Distinct new world entities found / present in the universe.
  size_t found_new = 0;
  size_t truth_new = 0;
  size_t facts = 0;
  size_t correct_facts = 0;

  double new_entity_f1() const;
};

/// Scores of a run. The two F1 scores average the classes (as the paper's
/// tables do); fact precision pools the facts of all classes.
struct Quality {
  std::vector<ClassQuality> classes;
  double cluster_pair_f1 = 0.0;
  double new_entity_f1 = 0.0;
  double new_fact_precision = 0.0;
};

/// Table 9 conditions: an entity finds world entity w when at least half
/// of its rows are w's rows, it holds at least half of w's universe rows,
/// and it was classified new; it finds a *new* instance when w is of the
/// class's profile and not in the KB. Ties go to the smaller world id.
Quality Evaluate(const std::vector<ClassOutcome>& classes,
                 const std::vector<ltee::synth::WorldEntity>& world);

/// Outcomes of the final-iteration class results of a run over `corpus`.
/// `truth_table[t]` is the dataset table id whose truth describes corpus
/// table t.
std::vector<ClassOutcome> OutcomesOfRun(
    const ltee::synth::SyntheticDataset& dataset,
    const ltee::webtable::TableCorpus& corpus,
    const std::vector<int>& truth_table,
    const std::vector<ltee::pipeline::ClassRunResult>& classes);

}  // namespace kbbench

#endif  // KBBENCH_QUALITY_H_
