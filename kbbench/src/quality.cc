#include "quality.h"

#include <set>

#include "types/type_similarity.h"
#include "util/stats.h"

namespace kbbench {

namespace {

uint64_t PairsOf(uint64_t n) { return n * (n - 1) / 2; }

double Ratio(size_t num, size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// World entity holding at least half of `rows`, or -1 (ties: smaller id).
int MajorityWorld(const std::vector<int>& rows, int* count) {
  std::unordered_map<int, int> counts;
  for (int w : rows) {
    if (w >= 0) counts[w] += 1;
  }
  int best = -1;
  int best_count = 0;
  for (const auto& [w, n] : counts) {
    if (n > best_count || (n == best_count && w < best)) {
      best = w;
      best_count = n;
    }
  }
  if (best < 0 || 2 * static_cast<size_t>(best_count) < rows.size()) {
    return -1;
  }
  *count = best_count;
  return best;
}

}  // namespace

PairCounts CountPairs(const std::vector<int>& predicted,
                      const std::vector<int>& truth) {
  std::unordered_map<int, uint64_t> by_predicted;
  std::unordered_map<int, uint64_t> by_truth;
  std::unordered_map<uint64_t, uint64_t> by_both;
  for (size_t i = 0; i < predicted.size() && i < truth.size(); ++i) {
    if (predicted[i] >= 0) by_predicted[predicted[i]] += 1;
    if (truth[i] >= 0) by_truth[truth[i]] += 1;
    if (predicted[i] >= 0 && truth[i] >= 0) {
      const uint64_t key = (static_cast<uint64_t>(predicted[i]) << 32) |
                           static_cast<uint32_t>(truth[i]);
      by_both[key] += 1;
    }
  }
  PairCounts counts;
  for (const auto& [label, n] : by_predicted) counts.predicted += PairsOf(n);
  for (const auto& [label, n] : by_truth) counts.truth += PairsOf(n);
  for (const auto& [key, n] : by_both) counts.both += PairsOf(n);
  return counts;
}

double PairF1(const PairCounts& counts) {
  if (counts.predicted == 0 && counts.truth == 0) return 1.0;
  return ltee::util::F1(Ratio(counts.both, counts.predicted),
                        Ratio(counts.both, counts.truth));
}

double ClassQuality::new_entity_f1() const {
  return ltee::util::F1(Ratio(correct_new, returned_new),
                        Ratio(found_new, truth_new));
}

Quality Evaluate(const std::vector<ClassOutcome>& classes,
                 const std::vector<ltee::synth::WorldEntity>& world) {
  const ltee::types::TypeSimilarityOptions similarity;
  Quality quality;
  size_t facts = 0;
  size_t correct_facts = 0;
  for (const ClassOutcome& outcome : classes) {
    ClassQuality q;
    q.pairs = CountPairs(outcome.cluster_of_row, outcome.row_world);
    auto is_new_of_class = [&](int w) {
      return w >= 0 && w < static_cast<int>(world.size()) &&
             world[w].profile_index == outcome.profile && !world[w].in_kb;
    };
    for (const auto& [w, rows] : outcome.universe) {
      if (is_new_of_class(w)) ++q.truth_new;
    }
    std::set<int> found;
    for (const EntityOutcome& entity : outcome.entities) {
      if (!entity.is_new) continue;
      ++q.returned_new;
      int count = 0;
      const int w = MajorityWorld(entity.row_world, &count);
      if (!is_new_of_class(w)) continue;
      auto universe = outcome.universe.find(w);
      if (universe == outcome.universe.end() ||
          2 * count < universe->second) {
        continue;
      }
      ++q.correct_new;
      found.insert(w);
      for (const ltee::kb::Fact& fact : entity.facts) {
        ++q.facts;
        auto slot = outcome.property_slot.find(fact.property);
        if (slot != outcome.property_slot.end() &&
            ltee::types::ValuesEqual(fact.value, world[w].truth[slot->second],
                                     similarity)) {
          ++q.correct_facts;
        }
      }
    }
    q.found_new = found.size();
    quality.cluster_pair_f1 += PairF1(q.pairs);
    quality.new_entity_f1 += q.new_entity_f1();
    facts += q.facts;
    correct_facts += q.correct_facts;
    quality.classes.push_back(q);
  }
  if (!classes.empty()) {
    quality.cluster_pair_f1 /= static_cast<double>(classes.size());
    quality.new_entity_f1 /= static_cast<double>(classes.size());
  }
  quality.new_fact_precision = Ratio(correct_facts, facts);
  return quality;
}

std::vector<ClassOutcome> OutcomesOfRun(
    const ltee::synth::SyntheticDataset& dataset,
    const ltee::webtable::TableCorpus& corpus,
    const std::vector<int>& truth_table,
    const std::vector<ltee::pipeline::ClassRunResult>& classes) {
  auto world_of_row = [&](ltee::webtable::RowRef ref) {
    if (ref.table < 0 || ref.table >= static_cast<int>(truth_table.size())) {
      return -1;
    }
    const auto& truth = dataset.table_truth[truth_table[ref.table]];
    if (ref.row < 0 || ref.row >= static_cast<int>(truth.row_entity.size())) {
      return -1;
    }
    return truth.row_entity[ref.row];
  };

  std::vector<ClassOutcome> out;
  for (const ltee::pipeline::ClassRunResult& run : classes) {
    ClassOutcome outcome;
    outcome.profile = dataset.ProfileOfClass(run.cls);
    for (size_t i = 0; i < run.rows.rows.size(); ++i) {
      outcome.cluster_of_row.push_back(run.cluster_of_row[i]);
      outcome.row_world.push_back(world_of_row(run.rows.rows[i].ref));
    }
    for (size_t t = 0; t < corpus.size(); ++t) {
      const auto& truth = dataset.table_truth[truth_table[t]];
      if (truth.profile_index != outcome.profile) continue;
      for (int w : truth.row_entity) {
        if (w >= 0) outcome.universe[w] += 1;
      }
    }
    if (outcome.profile >= 0) {
      const auto& properties = dataset.property_ids[outcome.profile];
      for (size_t k = 0; k < properties.size(); ++k) {
        outcome.property_slot[properties[k]] = static_cast<int>(k);
      }
    }
    for (size_t e = 0; e < run.entities.size(); ++e) {
      EntityOutcome entity;
      entity.is_new = run.detections[e].is_new;
      for (const auto& ref : run.entities[e].rows) {
        entity.row_world.push_back(world_of_row(ref));
      }
      entity.facts = run.entities[e].facts;
      outcome.entities.push_back(std::move(entity));
    }
    out.push_back(std::move(outcome));
  }
  return out;
}

}  // namespace kbbench
