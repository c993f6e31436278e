#ifndef LTEE_INDEX_LABEL_INDEX_H_
#define LTEE_INDEX_LABEL_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/token_dictionary.h"

namespace ltee::index {

/// A scored retrieval hit: the document id supplied at Add() time and a
/// TF-IDF cosine-ish score in (0, +inf).
struct LabelHit {
  uint32_t doc = 0;
  double score = 0.0;
};

/// Inverted token index over normalized labels — the stand-in for the
/// Lucene index the paper uses for (a) blocking in row clustering and
/// (b) candidate selection in new detection.
///
/// Usage: Add() every (doc, label) pair, call Build() once, then Search().
/// Labels are normalized internally (lower-case, punctuation stripped).
/// A document may be added under several labels (e.g. a KB instance with
/// alias labels); its score is the max over its labels.
///
/// Tokens are interned in a util::TokenDictionary — pass a shared one to
/// let callers feed pre-interned token ids (AddTokens, the span Search
/// overload) straight from a prepared corpus; a private dictionary is
/// created otherwise. Internally every dictionary id is remapped to a dense
/// local id assigned in first-appearance order of the Add stream, so index
/// contents (postings, IDF weights, entry norms) do not depend on the
/// global interning order and Search scores are bit-stable regardless of
/// who else uses the dictionary.
class LabelIndex {
 public:
  LabelIndex() : LabelIndex(nullptr) {}
  explicit LabelIndex(std::shared_ptr<util::TokenDictionary> dict);
  LabelIndex(LabelIndex&&) = default;
  LabelIndex& operator=(LabelIndex&&) = default;
  LabelIndex(const LabelIndex&) = delete;
  LabelIndex& operator=(const LabelIndex&) = delete;

  /// Registers `label` for document `doc`. Must be called before Build().
  void Add(uint32_t doc, std::string_view label);

  /// Pre-tokenized variant of Add: `normalized` is the normalized label and
  /// `tokens` its ordered dictionary token ids (duplicates kept, i.e.
  /// dict().InternTokens(normalized)). Skips re-normalizing, re-tokenizing
  /// and re-hashing the label text.
  void AddTokens(uint32_t doc, std::string_view normalized,
                 std::span<const uint32_t> tokens);

  /// Finalizes the index: computes IDF weights and entry norms.
  void Build();

  /// Returns up to `k` distinct documents whose labels share tokens with
  /// the query, ranked by TF-IDF-weighted overlap normalized by entry
  /// length. Requires Build(). Same as the span overload on
  /// dict().FindTokens(label).
  std::vector<LabelHit> Search(std::string_view label, size_t k) const;

  /// Pre-tokenized query: `tokens` are ordered dictionary ids of the query
  /// label's tokens (duplicates allowed, kNoToken entries skipped), e.g.
  /// straight from a prepared corpus.
  std::vector<LabelHit> Search(std::span<const uint32_t> tokens,
                               size_t k) const;

  /// Block id of an exact normalized label: every distinct normalized label
  /// added to the index forms one block. Returns -1 if the label was never
  /// added. Used by the clustering blocker.
  int32_t BlockOf(std::string_view label) const;

  /// BlockOf for a label that is already normalized.
  int32_t BlockOfNormalized(std::string_view normalized) const;

  /// Best util::MongeElkanLevenshtein of the ordered token ids `tokens`
  /// against every label `doc` was added under; 0 when `doc` has none.
  /// Requires Build().
  double BestLabelSimilarity(std::span<const uint32_t> tokens,
                             uint32_t doc) const;

  const util::TokenDictionary& dict() const { return *dict_; }
  const std::shared_ptr<util::TokenDictionary>& dict_ptr() const {
    return dict_;
  }

  size_t num_entries() const { return entries_.size(); }
  size_t num_blocks() const { return block_by_label_.size(); }

 private:
  struct Entry {
    uint32_t doc;
    std::vector<uint32_t> tokens;   // local token ids, deduplicated
    std::vector<uint32_t> ordered;  // dictionary ids, label order, dups kept
    double norm = 0.0;
  };

  /// Local id of a dictionary id, assigned on first appearance.
  uint32_t LocalId(uint32_t global);

  std::shared_ptr<util::TokenDictionary> dict_;
  std::vector<Entry> entries_;
  std::unordered_map<uint32_t, uint32_t> local_of_global_;
  std::vector<std::vector<uint32_t>> postings_;  // local id -> entry indices
  std::vector<double> idf_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> entries_of_doc_;
  std::unordered_map<std::string, int32_t> block_by_label_;
  bool built_ = false;
};

}  // namespace ltee::index

#endif  // LTEE_INDEX_LABEL_INDEX_H_
