#ifndef LTEE_WEBTABLE_PREPARED_CORPUS_H_
#define LTEE_WEBTABLE_PREPARED_CORPUS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"
#include "util/thread_pool.h"
#include "util/token_dictionary.h"
#include "webtable/web_table.h"

namespace ltee::webtable {

/// One cell after the one-time preparation pass: normalized text, interned
/// tokens, and the types::NormalizeCell parse for every candidate DataType.
/// Everything downstream (matching, clustering, fusion, detection) reads
/// these fields instead of re-deriving them from the raw string.
struct PreparedCell {
  /// True when the trimmed raw cell is empty; all other fields are
  /// defaulted in that case.
  bool empty = true;
  /// util::NormalizeLabel of the raw cell (may itself be empty when the
  /// cell holds no alphanumeric characters).
  std::string normalized;
  /// Dictionary ids of the cell's tokens, in order, duplicates kept —
  /// the interned util::Tokenize output.
  std::vector<uint32_t> tokens;
  /// `tokens` sorted and deduplicated, for the set-based kernels.
  std::vector<uint32_t> token_set;
  /// types::NormalizeCell(raw, t) for each DataType t, indexed by the enum
  /// value. nullopt where the cell does not parse as that type.
  std::array<std::optional<types::Value>, types::kNumDataTypes> parsed;

  const std::optional<types::Value>& parsed_as(types::DataType t) const {
    return parsed[static_cast<size_t>(t)];
  }
};

/// Per-table precomputation: prepared header labels, detected column types
/// and the label column (cached here so schema matching stops re-deriving
/// them per matcher), plus all cells in row-major order.
struct PreparedTable {
  TableId id = -1;
  size_t num_columns = 0;
  size_t num_rows = 0;
  std::vector<std::string> normalized_headers;
  /// Ordered dictionary token ids per header (the KB-Label matcher).
  std::vector<std::vector<uint32_t>> header_tokens;
  /// types::DetectColumnType over each column's cells.
  std::vector<types::DetectedType> column_types;
  /// Label attribute (Section 3.1.1): text column with the most unique
  /// normalized values; -1 when the table has none.
  int label_column = -1;
  /// Row-major: cells[r * num_columns + c].
  std::vector<PreparedCell> cells;

  const PreparedCell& cell(size_t row, size_t col) const {
    return cells[row * num_columns + col];
  }
};

/// Immutable prepared view over a TableCorpus: one parallel pass computes
/// per cell the normalized label, interned token ids and typed parses, and
/// per table the column types and label column. Built once, read
/// everywhere — no member mutates after construction, so concurrent reads
/// from the parallel per-class pipeline stages are safe.
///
/// The corpus must outlive the PreparedCorpus. The token dictionary is
/// shared: pass the pipeline-wide dictionary so ids line up with the KB
/// label index; a private dictionary is created when none is given.
class PreparedCorpus {
 public:
  /// Prepares every table of `corpus`. When `pool` is non-null the
  /// per-table work runs via pool->ParallelFor (interning is thread-safe);
  /// otherwise it runs serially on the calling thread.
  explicit PreparedCorpus(const TableCorpus& corpus,
                          std::shared_ptr<util::TokenDictionary> dict = nullptr,
                          util::ThreadPool* pool = nullptr);

  PreparedCorpus(PreparedCorpus&&) = default;
  PreparedCorpus& operator=(PreparedCorpus&&) = default;
  PreparedCorpus(const PreparedCorpus&) = delete;
  PreparedCorpus& operator=(const PreparedCorpus&) = delete;

  /// Prepares the tables appended to the corpus since construction (or the
  /// previous Append): ids [size(), corpus().size()). Existing prepared
  /// tables and their token ids are untouched — util::TokenDictionary only
  /// grows, so every id interned before the append stays valid. Returns
  /// the newly prepared table ids: the invalidation set that seeds delta
  /// scoping (each new table invalidates the per-class blocks its schema
  /// mapping assigns it to). Not safe to call concurrently with readers.
  std::vector<TableId> Append(util::ThreadPool* pool = nullptr);

  const TableCorpus& corpus() const { return *corpus_; }
  const util::TokenDictionary& dict() const { return *dict_; }
  const std::shared_ptr<util::TokenDictionary>& dict_ptr() const {
    return dict_;
  }

  size_t size() const { return tables_.size(); }
  const PreparedTable& table(TableId id) const { return tables_[id]; }
  const PreparedCell& cell(RowRef ref, int column) const {
    return tables_[ref.table].cell(static_cast<size_t>(ref.row),
                                   static_cast<size_t>(column));
  }

 private:
  const TableCorpus* corpus_;
  std::shared_ptr<util::TokenDictionary> dict_;
  std::vector<PreparedTable> tables_;
};

}  // namespace ltee::webtable

#endif  // LTEE_WEBTABLE_PREPARED_CORPUS_H_
