#include "webtable/prepared_corpus.h"

#include <algorithm>
#include <unordered_set>

#include "types/value_parser.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace ltee::webtable {

namespace {

void PrepareCell(const std::string& raw, util::TokenDictionary* dict,
                 PreparedCell* out) {
  const std::string_view trimmed = util::Trim(raw);
  if (trimmed.empty()) return;  // keep the defaulted empty state
  out->empty = false;

  auto token_strings = util::Tokenize(raw);
  out->normalized = util::Join(token_strings, " ");
  out->tokens.reserve(token_strings.size());
  for (const auto& tok : token_strings) {
    out->tokens.push_back(dict->Intern(tok));
  }
  out->token_set = util::SortedUnique(out->tokens);

  // The three text-shaped parses share the normalized string; the numeric
  // and date parses go through the same parsers NormalizeCell uses, so
  // every entry equals types::NormalizeCell(raw, t).
  out->parsed[static_cast<size_t>(types::DataType::kText)] =
      types::Value::Text(out->normalized);
  out->parsed[static_cast<size_t>(types::DataType::kNominalString)] =
      types::Value::Nominal(out->normalized);
  out->parsed[static_cast<size_t>(types::DataType::kInstanceReference)] =
      types::Value::InstanceRef(out->normalized);
  out->parsed[static_cast<size_t>(types::DataType::kDate)] =
      types::NormalizeCell(raw, types::DataType::kDate);
  out->parsed[static_cast<size_t>(types::DataType::kQuantity)] =
      types::NormalizeCell(raw, types::DataType::kQuantity);
  out->parsed[static_cast<size_t>(types::DataType::kNominalInteger)] =
      types::NormalizeCell(raw, types::DataType::kNominalInteger);
}

/// Mirrors types::DetectColumnType over one column without materializing
/// the cell vector.
types::DetectedType DetectColumnTypeOf(const WebTable& table, size_t col) {
  int counts[3] = {0, 0, 0};
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const std::string& cell = table.cell(r, col);
    if (util::Trim(cell).empty()) continue;
    counts[static_cast<int>(types::ClassifyCell(cell).type)] += 1;
  }
  int best = 0;
  for (int t = 1; t < 3; ++t) {
    if (counts[t] > counts[best]) best = t;
  }
  return static_cast<types::DetectedType>(best);
}

void PrepareTable(const WebTable& table, util::TokenDictionary* dict,
                  PreparedTable* out) {
  out->id = table.id;
  out->num_columns = table.num_columns();
  out->num_rows = table.num_rows();

  out->normalized_headers.reserve(table.num_columns());
  out->header_tokens.reserve(table.num_columns());
  for (const auto& header : table.headers) {
    out->normalized_headers.push_back(util::NormalizeLabel(header));
    out->header_tokens.push_back(dict->InternTokens(header));
  }

  out->cells.resize(table.num_rows() * table.num_columns());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      PrepareCell(table.cell(r, c), dict,
                  &out->cells[r * out->num_columns + c]);
    }
  }

  out->column_types.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    out->column_types[c] = DetectColumnTypeOf(table, c);
  }

  // Label column: text column with the most unique normalized values,
  // leftmost on ties (mirrors matching::DetectLabelColumn).
  int best = -1;
  size_t best_unique = 0;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (out->column_types[c] != types::DetectedType::kText) continue;
    std::unordered_set<std::string_view> unique;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const PreparedCell& cell = out->cell(r, c);
      if (!cell.normalized.empty()) unique.insert(cell.normalized);
    }
    if (best < 0 || unique.size() > best_unique) {
      best = static_cast<int>(c);
      best_unique = unique.size();
    }
  }
  out->label_column = best;
}

}  // namespace

PreparedCorpus::PreparedCorpus(const TableCorpus& corpus,
                               std::shared_ptr<util::TokenDictionary> dict,
                               util::ThreadPool* pool)
    : corpus_(&corpus), dict_(std::move(dict)) {
  util::trace::ScopedSpan span("webtable.prepare_corpus");
  span.AddArg("tables", corpus.size());
  span.AddArg("parallel", pool != nullptr ? "true" : "false");
  if (dict_ == nullptr) dict_ = std::make_shared<util::TokenDictionary>();
  tables_.resize(corpus.size());
  auto prepare_one = [this, &corpus](size_t t) {
    PrepareTable(corpus.table(static_cast<TableId>(t)), dict_.get(),
                 &tables_[t]);
  };
  util::ParallelFor(pool, tables_.size(), prepare_one);
  size_t cells = 0;
  for (const PreparedTable& table : tables_) cells += table.cells.size();
  span.AddArg("cells", cells);
  util::Metrics()
      .GetCounter("ltee.prepared.tables")
      .Increment(tables_.size());
  util::Metrics().GetCounter("ltee.prepared.cells").Increment(cells);
  util::Metrics()
      .GetGauge("ltee.prepared.dict_tokens")
      .Set(static_cast<double>(dict_->size()));
}

std::vector<TableId> PreparedCorpus::Append(util::ThreadPool* pool) {
  const size_t old_size = tables_.size();
  if (corpus_->size() <= old_size) return {};
  util::trace::ScopedSpan span("webtable.prepare_append");
  span.AddArg("tables", corpus_->size() - old_size);
  tables_.resize(corpus_->size());
  auto prepare_one = [this, old_size](size_t i) {
    const size_t t = old_size + i;
    PrepareTable(corpus_->table(static_cast<TableId>(t)), dict_.get(),
                 &tables_[t]);
  };
  const size_t appended = tables_.size() - old_size;
  util::ParallelFor(pool, appended, prepare_one);
  std::vector<TableId> new_ids;
  new_ids.reserve(appended);
  size_t cells = 0;
  for (size_t t = old_size; t < tables_.size(); ++t) {
    new_ids.push_back(static_cast<TableId>(t));
    cells += tables_[t].cells.size();
  }
  span.AddArg("cells", cells);
  util::Metrics().GetCounter("ltee.prepared.tables").Increment(appended);
  util::Metrics().GetCounter("ltee.prepared.cells").Increment(cells);
  util::Metrics()
      .GetGauge("ltee.prepared.dict_tokens")
      .Set(static_cast<double>(dict_->size()));
  return new_ids;
}

}  // namespace ltee::webtable
