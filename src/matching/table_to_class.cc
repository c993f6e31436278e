#include "matching/table_to_class.h"

#include <algorithm>
#include <unordered_map>

#include "types/type_similarity.h"
#include "types/value_parser.h"

namespace ltee::matching {

namespace {

struct RowCandidate {
  kb::InstanceId instance;
  double label_similarity;
};

}  // namespace

TableToClassResult MatchTableToClass(
    const webtable::PreparedTable& table, int label_column,
    const kb::KnowledgeBase& kb, const index::LabelIndex& kb_index,
    const TableToClassOptions& options) {
  TableToClassResult result;
  result.row_instance.assign(table.num_rows, kb::kInvalidInstance);
  if (label_column < 0 || table.num_rows == 0) return result;

  // --- 1. Row label lookup: candidate instances per row. ----------------
  std::vector<std::vector<RowCandidate>> row_candidates(table.num_rows);
  for (size_t r = 0; r < table.num_rows; ++r) {
    const webtable::PreparedCell& label =
        table.cell(r, static_cast<size_t>(label_column));
    if (label.empty) continue;
    for (const auto& hit :
         kb_index.Search(label.tokens, options.candidates_per_row)) {
      const kb::Instance& inst = kb.instance(static_cast<int>(hit.doc));
      const double best_sim =
          kb_index.BestLabelSimilarity(label.tokens, hit.doc);
      if (best_sim >= options.label_similarity_threshold) {
        row_candidates[r].push_back({inst.id, best_sim});
      }
    }
  }

  // --- 2. Candidate classes by row support. ------------------------------
  std::unordered_map<kb::ClassId, int> row_support;
  for (const auto& candidates : row_candidates) {
    std::unordered_map<kb::ClassId, bool> seen;
    for (const auto& cand : candidates) {
      seen[kb.instance(cand.instance).cls] = true;
    }
    for (const auto& [cls, unused] : seen) row_support[cls] += 1;
  }
  const int min_support = std::max(
      1, static_cast<int>(options.min_row_support *
                          static_cast<double>(table.num_rows)));

  // --- 3. Score candidate classes: row support + duplicate-based
  //        attribute matching. -------------------------------------------
  const types::TypeSimilarityOptions sim_options;
  double best_score = 0.0;
  kb::ClassId best_class = kb::kInvalidClass;
  std::vector<kb::InstanceId> best_rows;

  for (const auto& [cls, support] : row_support) {
    if (support < min_support) continue;

    // Per (column, property) matched-cell counts; per row the best
    // candidate instance by fact matches.
    std::unordered_map<int64_t, int> cell_matches;  // (col<<16|prop) -> count
    std::vector<kb::InstanceId> rows(table.num_rows, kb::kInvalidInstance);
    std::vector<int> row_fact_matches(table.num_rows, -1);

    for (size_t r = 0; r < table.num_rows; ++r) {
      for (const auto& cand : row_candidates[r]) {
        const kb::Instance& inst = kb.instance(cand.instance);
        if (inst.cls != cls) continue;
        int fact_matches = 0;
        for (size_t c = 0; c < table.num_columns; ++c) {
          if (static_cast<int>(c) == label_column) continue;
          const webtable::PreparedCell& cell = table.cell(r, c);
          if (cell.empty) continue;
          for (const auto& fact : inst.facts) {
            const kb::PropertySpec& prop = kb.property(fact.property);
            if (!types::DetectedTypeAdmitsProperty(table.column_types[c],
                                                   prop.type)) {
              continue;
            }
            const auto& value = cell.parsed_as(prop.type);
            if (!value) continue;
            if (types::ValuesEqual(*value, fact.value, sim_options)) {
              cell_matches[(static_cast<int64_t>(c) << 16) |
                           static_cast<int64_t>(fact.property)] += 1;
              ++fact_matches;
              break;  // one property match per (row, column, instance)
            }
          }
        }
        // Track the best instance for this row under this class.
        const bool better =
            fact_matches > row_fact_matches[r] ||
            (fact_matches == row_fact_matches[r] && rows[r] >= 0 &&
             inst.popularity > kb.instance(rows[r]).popularity);
        if (better) {
          row_fact_matches[r] = fact_matches;
          rows[r] = inst.id;
        }
      }
    }

    // Duplicate-based attribute matching: per column take the property
    // with the highest matched-cell count.
    std::unordered_map<int, int> best_per_column;
    for (const auto& [key, count] : cell_matches) {
      const int col = static_cast<int>(key >> 16);
      auto [it, inserted] = best_per_column.emplace(col, count);
      if (!inserted && count > it->second) it->second = count;
    }
    double attr_score = 0.0;
    for (const auto& [col, count] : best_per_column) attr_score += count;

    const double score = static_cast<double>(support) + attr_score;
    if (score > best_score) {
      best_score = score;
      best_class = cls;
      best_rows = rows;
    }
  }

  result.cls = best_class;
  result.score = best_score;
  if (best_class != kb::kInvalidClass) {
    result.row_instance = std::move(best_rows);
  }
  return result;
}

}  // namespace ltee::matching
