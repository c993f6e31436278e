#include "rowcluster/row_features.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

#include "matching/attribute_matchers.h"

namespace ltee::rowcluster {

const types::Value* RowFeature::ValueOf(kb::PropertyId property) const {
  for (const auto& rv : values) {
    if (rv.property == property) return &rv.value;
  }
  return nullptr;
}

namespace {

/// Derives the implicit attributes of one table: property-value
/// combinations present for at least one label candidate of a large enough
/// fraction of rows.
std::vector<ImplicitAttribute> DeriveImplicitAttributes(
    const webtable::PreparedTable& table, int label_column,
    const kb::KnowledgeBase& kb, const index::LabelIndex& kb_index,
    const RowFeatureOptions& options) {
  std::vector<ImplicitAttribute> out;
  if (label_column < 0 || table.num_rows == 0) return out;

  struct ComboStat {
    types::Value value;
    kb::PropertyId property;
    int rows = 0;
  };
  std::unordered_map<std::string, ComboStat> combos;

  int considered_rows = 0;
  for (size_t r = 0; r < table.num_rows; ++r) {
    const webtable::PreparedCell& label =
        table.cell(r, static_cast<size_t>(label_column));
    if (label.empty) continue;
    ++considered_rows;
    // Property-value combinations of any candidate instance of this row.
    std::unordered_set<std::string> row_combos;
    std::unordered_map<std::string, ComboStat> row_new;
    for (const auto& hit :
         kb_index.Search(label.tokens, options.implicit_candidates_per_row)) {
      const kb::Instance& inst = kb.instance(static_cast<int>(hit.doc));
      const double best_sim =
          kb_index.BestLabelSimilarity(label.tokens, hit.doc);
      if (best_sim < options.implicit_label_similarity) continue;
      for (const auto& fact : inst.facts) {
        std::string key = std::to_string(fact.property) + "|" +
                          matching::ExactValueKey(fact.value);
        if (row_combos.insert(key).second) {
          auto it = row_new.find(key);
          if (it == row_new.end()) {
            row_new.emplace(key,
                            ComboStat{fact.value, fact.property, 1});
          }
        }
      }
    }
    for (auto& [key, stat] : row_new) {
      auto [it, inserted] = combos.emplace(key, stat);
      if (!inserted) it->second.rows += 1;
    }
  }
  if (considered_rows == 0) return out;

  for (auto& [key, stat] : combos) {
    const double score =
        static_cast<double>(stat.rows) / static_cast<double>(considered_rows);
    if (score >= options.implicit_score_threshold) {
      out.push_back({stat.property, std::move(stat.value), score});
    }
  }
  return out;
}

}  // namespace

ClassRowSet FilterRows(const ClassRowSet& rows,
                       const std::vector<bool>& keep) {
  ClassRowSet out;
  out.cls = rows.cls;
  out.dict = rows.dict;
  out.tables = rows.tables;
  out.table_implicit = rows.table_implicit;
  out.table_phi = rows.table_phi;
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    if (i < keep.size() && keep[i]) out.rows.push_back(rows.rows[i]);
  }
  return out;
}

ClassRowSet BuildClassRowSet(const webtable::PreparedCorpus& prepared,
                             const matching::SchemaMapping& mapping,
                             kb::ClassId cls, const kb::KnowledgeBase& kb,
                             const index::LabelIndex& kb_index,
                             const RowFeatureOptions& options) {
  // Token ids are only meaningful across components when everyone resolves
  // them against the same dictionary.
  assert(&kb_index.dict() == &prepared.dict());
  ClassRowSet out;
  out.cls = cls;
  out.dict = prepared.dict_ptr();

  for (const auto& table_mapping : mapping.tables) {
    if (table_mapping.cls != cls || table_mapping.label_column < 0) continue;
    const webtable::PreparedTable& table = prepared.table(table_mapping.table);
    const webtable::WebTable& raw_table =
        prepared.corpus().table(table_mapping.table);
    const int table_index = static_cast<int>(out.tables.size());
    out.tables.push_back(table_mapping.table);
    out.table_implicit.push_back(DeriveImplicitAttributes(
        table, table_mapping.label_column, kb, kb_index, options));

    for (size_t r = 0; r < table.num_rows; ++r) {
      const webtable::PreparedCell& label_cell =
          table.cell(r, static_cast<size_t>(table_mapping.label_column));
      if (label_cell.normalized.empty()) continue;  // unusable row
      RowFeature row;
      row.ref = {table_mapping.table, static_cast<int32_t>(r)};
      row.table_index = table_index;
      row.raw_label =
          raw_table.cell(r, static_cast<size_t>(table_mapping.label_column));
      row.normalized_label = label_cell.normalized;
      row.label_tokens = label_cell.tokens;
      for (size_t c = 0; c < table.num_columns; ++c) {
        const webtable::PreparedCell& cell = table.cell(r, c);
        row.bow.insert(row.bow.end(), cell.token_set.begin(),
                       cell.token_set.end());
        const matching::ColumnMatch& match = table_mapping.columns[c];
        if (match.property == kb::kInvalidProperty ||
            static_cast<int>(c) == table_mapping.label_column) {
          continue;
        }
        const auto& value = cell.parsed_as(kb.property(match.property).type);
        if (value) {
          row.values.push_back({match.property, static_cast<int>(c), *value});
        }
      }
      row.bow = util::SortedUnique(std::move(row.bow));
      out.rows.push_back(std::move(row));
    }
  }

  // ---- PHI vectors -------------------------------------------------------
  // Label ids over the class row set.
  std::unordered_map<std::string, uint32_t> label_ids;
  std::vector<std::vector<uint32_t>> table_labels(out.tables.size());
  for (const auto& row : out.rows) {
    auto [it, inserted] = label_ids.emplace(
        row.normalized_label, static_cast<uint32_t>(label_ids.size()));
    auto& labels = table_labels[row.table_index];
    if (labels.size() < options.phi_max_rows_per_table &&
        std::find(labels.begin(), labels.end(), it->second) == labels.end()) {
      labels.push_back(it->second);
    }
  }
  const double n = static_cast<double>(label_ids.size());
  // Per-label table occurrence counts and pair co-occurrence counts.
  std::vector<double> occurrence(label_ids.size(), 0.0);
  std::unordered_map<uint64_t, double> co_occurrence;
  for (const auto& labels : table_labels) {
    for (uint32_t a : labels) occurrence[a] += 1.0;
    for (size_t i = 0; i < labels.size(); ++i) {
      for (size_t j = i + 1; j < labels.size(); ++j) {
        const uint32_t lo = std::min(labels[i], labels[j]);
        const uint32_t hi = std::max(labels[i], labels[j]);
        co_occurrence[(static_cast<uint64_t>(lo) << 32) | hi] += 1.0;
      }
    }
  }
  // Sparse PHI vector per label, built from the co-occurrence pairs.
  std::vector<std::unordered_map<uint32_t, double>> label_phi(
      label_ids.size());
  for (const auto& [key, nxy] : co_occurrence) {
    const uint32_t x = static_cast<uint32_t>(key >> 32);
    const uint32_t y = static_cast<uint32_t>(key & 0xffffffffu);
    const double nx = occurrence[x], ny = occurrence[y];
    const double denom = std::sqrt(nx * ny * (n - nx) * (n - ny));
    if (denom <= 0.0) continue;
    const double phi = (n * nxy - nx * ny) / denom;
    label_phi[x][y] = phi;
    label_phi[y][x] = phi;
  }
  // Table vector = average of its labels' vectors.
  out.table_phi.resize(out.tables.size());
  for (size_t t = 0; t < table_labels.size(); ++t) {
    auto& vec = out.table_phi[t];
    const auto& labels = table_labels[t];
    if (labels.empty()) continue;
    for (uint32_t l : labels) {
      for (const auto& [other, phi] : label_phi[l]) {
        vec[other] += phi / static_cast<double>(labels.size());
      }
    }
  }
  return out;
}

}  // namespace ltee::rowcluster
