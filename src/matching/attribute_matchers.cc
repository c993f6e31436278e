#include "matching/attribute_matchers.h"

#include <cmath>
#include <string>

#include "types/type_similarity.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/similarity.h"
#include "util/string_util.h"

namespace ltee::matching {

namespace {

using types::DataType;

int64_t PackClusterProperty(int cluster, kb::PropertyId property) {
  return (static_cast<int64_t>(cluster) << 16) | static_cast<int64_t>(property);
}

}  // namespace

const char* MatcherName(MatcherId id) {
  switch (id) {
    case MatcherId::kKbOverlap: return "KB-Overlap";
    case MatcherId::kKbLabel: return "KB-Label";
    case MatcherId::kKbDuplicate: return "KB-Duplicate";
    case MatcherId::kWtLabel: return "WT-Label";
    case MatcherId::kWtDuplicate: return "WT-Duplicate";
  }
  return "?";
}

std::string ExactValueKey(const types::Value& v) {
  if (v.type == DataType::kDate &&
      v.date.granularity == types::DateGranularity::kDay) {
    return std::to_string(v.date.year) + "|" + std::to_string(v.date.month) +
           "|" + std::to_string(v.date.day);
  }
  return ValueKey(v);
}

WtLabelStats WtLabelStats::Build(const webtable::PreparedCorpus& prepared,
                                 const SchemaMapping& preliminary) {
  WtLabelStats stats;
  for (const auto& mapping : preliminary.tables) {
    if (mapping.table < 0) continue;
    const webtable::PreparedTable& table = prepared.table(mapping.table);
    for (size_t c = 0; c < mapping.columns.size(); ++c) {
      const ColumnMatch& match = mapping.columns[c];
      if (match.property == kb::kInvalidProperty) continue;
      const std::string& header = table.normalized_headers[c];
      if (header.empty()) continue;
      auto& entry = stats.counts_[header];
      entry.per_property[match.property] += 1;
      entry.total += 1;
    }
  }
  return stats;
}

double WtLabelStats::Score(const std::string& header,
                           kb::PropertyId property) const {
  auto it = counts_.find(util::NormalizeLabel(header));
  if (it == counts_.end() || it->second.total == 0) return -1.0;
  auto pit = it->second.per_property.find(property);
  const int count = pit == it->second.per_property.end() ? 0 : pit->second;
  return static_cast<double>(count) / static_cast<double>(it->second.total);
}

WtDuplicateIndex WtDuplicateIndex::Build(
    const webtable::PreparedCorpus& prepared, const SchemaMapping& preliminary,
    const RowClusterMap& clusters, const kb::KnowledgeBase& kb) {
  WtDuplicateIndex index;
  for (const auto& mapping : preliminary.tables) {
    if (mapping.table < 0) continue;
    const webtable::PreparedTable& table = prepared.table(mapping.table);
    for (size_t c = 0; c < mapping.columns.size(); ++c) {
      const ColumnMatch& match = mapping.columns[c];
      if (match.property == kb::kInvalidProperty) continue;
      const DataType type = kb.property(match.property).type;
      for (size_t r = 0; r < table.num_rows; ++r) {
        auto cit = clusters.find(
            {mapping.table, static_cast<int32_t>(r)});
        if (cit == clusters.end()) continue;
        const auto& value = table.cell(r, c).parsed_as(type);
        if (!value) continue;
        index.index_[PackClusterProperty(cit->second, match.property)]
                    [ExactValueKey(*value)] += 1;
      }
    }
  }
  return index;
}

int WtDuplicateIndex::Count(int cluster, kb::PropertyId property,
                            const std::string& key) const {
  auto it = index_.find(PackClusterProperty(cluster, property));
  if (it == index_.end()) return 0;
  auto kit = it->second.find(key);
  return kit == it->second.end() ? 0 : kit->second;
}

namespace {

double KbOverlapScore(const MatcherInputs& in,
                      const webtable::PreparedTable& table, int column,
                      kb::PropertyId property) {
  const DataType type = in.kb->property(property).type;
  const PropertyValueProfile& profile = (*in.value_profiles)[property];
  int non_empty = 0, fits = 0;
  for (size_t r = 0; r < table.num_rows; ++r) {
    const webtable::PreparedCell& cell =
        table.cell(r, static_cast<size_t>(column));
    if (cell.empty) continue;
    ++non_empty;
    const auto& value = cell.parsed_as(type);
    if (value && profile.Fits(*value)) ++fits;
  }
  if (non_empty == 0) return -1.0;
  return static_cast<double>(fits) / static_cast<double>(non_empty);
}

double KbLabelScore(const MatcherInputs& in,
                    const webtable::PreparedTable& table, int column,
                    kb::PropertyId property) {
  // Only a blank header is not applicable: a punctuation-only one has no
  // tokens but still scores (0 against every non-empty label).
  if (util::Trim(in.prepared->corpus().table(table.id).headers[column])
          .empty()) {
    return -1.0;
  }
  const util::TokenDictionary& dict = in.prepared->dict();
  std::vector<std::string_view> header;
  for (uint32_t id : table.header_tokens[column]) {
    header.push_back(dict.token(id));
  }
  double best = 0.0;
  for (const auto& label : in.kb->property(property).labels) {
    // Property labels live outside the dictionary: tokenize their text.
    const std::vector<std::string> tokens = util::Tokenize(label);
    const std::vector<std::string_view> label_tokens(tokens.begin(),
                                                     tokens.end());
    best = std::max(best, util::MongeElkan<std::string_view>(
                              header, label_tokens,
                              util::LevenshteinSimilarity));
  }
  return best;
}

double KbDuplicateScore(const MatcherInputs& in,
                        const webtable::PreparedTable& table, int column,
                        kb::PropertyId property) {
  if (in.row_instances == nullptr) return -1.0;
  const DataType type = in.kb->property(property).type;
  const types::TypeSimilarityOptions sim_options;
  int compared = 0, equal = 0;
  for (size_t r = 0; r < table.num_rows; ++r) {
    auto it = in.row_instances->find({table.id, static_cast<int32_t>(r)});
    if (it == in.row_instances->end()) continue;
    const types::Value* fact = in.kb->FactOf(it->second, property);
    if (fact == nullptr) continue;
    const webtable::PreparedCell& cell =
        table.cell(r, static_cast<size_t>(column));
    if (cell.empty) continue;
    const auto& value = cell.parsed_as(type);
    ++compared;
    if (value && types::ValuesEqual(*value, *fact, sim_options)) ++equal;
  }
  if (compared == 0) return -1.0;
  return static_cast<double>(equal) / static_cast<double>(compared);
}

double WtLabelScore(const MatcherInputs& in,
                    const webtable::PreparedTable& table, int column,
                    kb::PropertyId property) {
  if (in.wt_label == nullptr) return -1.0;
  return in.wt_label->Score(table.normalized_headers[column], property);
}

/// Whether this very column fed the WT-Duplicate index under `property`
/// (it was matched to it in the preliminary mapping); in that case every
/// cell of the column indexed itself once.
bool SelfIndexed(const MatcherInputs& in, const webtable::PreparedTable& table,
                 int column, kb::PropertyId property) {
  if (in.preliminary == nullptr ||
      table.id >= static_cast<int>(in.preliminary->tables.size())) {
    return false;
  }
  const TableMapping& mapping = in.preliminary->tables[table.id];
  return column < static_cast<int>(mapping.columns.size()) &&
         mapping.columns[column].property == property;
}

double WtDuplicateScore(const MatcherInputs& in,
                        const webtable::PreparedTable& table, int column,
                        kb::PropertyId property) {
  if (in.wt_duplicate == nullptr || in.row_clusters == nullptr) return -1.0;
  const DataType type = in.kb->property(property).type;
  int considered = 0, supported = 0;
  for (size_t r = 0; r < table.num_rows; ++r) {
    auto cit = in.row_clusters->find({table.id, static_cast<int32_t>(r)});
    if (cit == in.row_clusters->end()) continue;
    const auto& value =
        table.cell(r, static_cast<size_t>(column)).parsed_as(type);
    if (!value) continue;
    ++considered;
    // The cell itself may be indexed (when this column was matched in the
    // preliminary mapping); require a second occurrence in that case is
    // approximated by requiring count >= 2 whenever count includes self.
    const int count =
        in.wt_duplicate->Count(cit->second, property, ExactValueKey(*value));
    if (count >= 2 || (count == 1 && !SelfIndexed(in, table, column, property))) {
      ++supported;
    }
  }
  if (considered == 0) return -1.0;
  return static_cast<double>(supported) / static_cast<double>(considered);
}

}  // namespace

double RunMatcher(MatcherId id, const MatcherInputs& inputs,
                  const webtable::PreparedTable& table, int column,
                  kb::PropertyId property) {
  switch (id) {
    case MatcherId::kKbOverlap:
      return KbOverlapScore(inputs, table, column, property);
    case MatcherId::kKbLabel:
      return KbLabelScore(inputs, table, column, property);
    case MatcherId::kKbDuplicate:
      return KbDuplicateScore(inputs, table, column, property);
    case MatcherId::kWtLabel:
      return WtLabelScore(inputs, table, column, property);
    case MatcherId::kWtDuplicate:
      return WtDuplicateScore(inputs, table, column, property);
  }
  return -1.0;
}

namespace {

/// Per-matcher run/applicability counters
/// (`ltee.matching.matcher.<name>.{runs,applicable}`), registered once.
/// A matcher is "applicable" when it produced a score (>= 0) for the
/// candidate — the per-matcher accounting behind the Table 6 iteration
/// effect (WT-* matchers only apply from iteration 2 on).
struct MatcherCounters {
  std::array<util::Counter*, kNumMatchers> runs;
  std::array<util::Counter*, kNumMatchers> applicable;
  MatcherCounters() {
    for (int i = 0; i < kNumMatchers; ++i) {
      const std::string base =
          std::string("ltee.matching.matcher.") +
          util::SanitizeMetricSegment(MatcherName(static_cast<MatcherId>(i)));
      runs[i] = &util::Metrics().GetCounter(base + ".runs");
      applicable[i] = &util::Metrics().GetCounter(base + ".applicable");
    }
  }
};

MatcherCounters& GetMatcherCounters() {
  static MatcherCounters* counters = new MatcherCounters();
  return *counters;
}

}  // namespace

std::array<double, kNumMatchers> RunAllMatchers(
    const MatcherInputs& inputs, const webtable::PreparedTable& table,
    int column, kb::PropertyId property) {
  MatcherCounters& counters = GetMatcherCounters();
  std::array<double, kNumMatchers> out;
  for (int i = 0; i < kNumMatchers; ++i) {
    out[i] = RunMatcher(static_cast<MatcherId>(i), inputs, table, column,
                        property);
    counters.runs[i]->Increment();
    if (out[i] >= 0.0) counters.applicable[i]->Increment();
  }
  return out;
}

}  // namespace ltee::matching
