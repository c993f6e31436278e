#include "index/label_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/similarity.h"
#include "util/string_util.h"

namespace ltee::index {

LabelIndex::LabelIndex(std::shared_ptr<util::TokenDictionary> dict)
    : dict_(std::move(dict)) {
  if (dict_ == nullptr) dict_ = std::make_shared<util::TokenDictionary>();
}

uint32_t LabelIndex::LocalId(uint32_t global) {
  auto [it, inserted] = local_of_global_.emplace(
      global, static_cast<uint32_t>(local_of_global_.size()));
  if (inserted) postings_.emplace_back();
  return it->second;
}

void LabelIndex::Add(uint32_t doc, std::string_view label) {
  const std::string normalized = util::NormalizeLabel(label);
  AddTokens(doc, normalized, dict_->InternTokens(normalized));
}

void LabelIndex::AddTokens(uint32_t doc, std::string_view normalized,
                           std::span<const uint32_t> tokens) {
  assert(!built_);
  if (normalized.empty()) return;
  block_by_label_.emplace(std::string(normalized),
                          static_cast<int32_t>(block_by_label_.size()));
  Entry entry;
  entry.doc = doc;
  entry.ordered.assign(tokens.begin(), tokens.end());
  for (uint32_t global : tokens) {
    entry.tokens.push_back(LocalId(global));
  }
  std::sort(entry.tokens.begin(), entry.tokens.end());
  entry.tokens.erase(std::unique(entry.tokens.begin(), entry.tokens.end()),
                     entry.tokens.end());
  entries_.push_back(std::move(entry));
}

void LabelIndex::Build() {
  assert(!built_);
  for (size_t e = 0; e < entries_.size(); ++e) {
    for (uint32_t tok : entries_[e].tokens) {
      postings_[tok].push_back(static_cast<uint32_t>(e));
    }
    entries_of_doc_[entries_[e].doc].push_back(static_cast<uint32_t>(e));
  }
  const double n = static_cast<double>(std::max<size_t>(1, entries_.size()));
  idf_.resize(postings_.size());
  for (size_t t = 0; t < postings_.size(); ++t) {
    idf_[t] = std::log(1.0 + n / (1.0 + static_cast<double>(postings_[t].size())));
  }
  for (auto& entry : entries_) {
    double norm = 0.0;
    for (uint32_t tok : entry.tokens) norm += idf_[tok] * idf_[tok];
    entry.norm = std::sqrt(norm);
  }
  built_ = true;
}

std::vector<LabelHit> LabelIndex::Search(std::string_view label,
                                         size_t k) const {
  return Search(dict_->FindTokens(label), k);
}

std::vector<LabelHit> LabelIndex::Search(std::span<const uint32_t> tokens,
                                         size_t k) const {
  assert(built_);
  std::vector<LabelHit> out;
  if (k == 0) return out;
  // Canonical lexicographic query order: scores must not depend on the
  // dictionary's interning order, so known tokens are resolved and sorted
  // by their text, then deduplicated.
  struct QueryToken {
    std::string_view text;
    uint32_t global;
  };
  std::vector<QueryToken> query;
  query.reserve(tokens.size());
  for (uint32_t global : tokens) {
    if (global == util::TokenDictionary::kNoToken) continue;
    query.push_back({dict_->token(global), global});
  }
  std::sort(query.begin(), query.end(),
            [](const QueryToken& a, const QueryToken& b) {
              return a.text < b.text;
            });
  query.erase(std::unique(query.begin(), query.end(),
                          [](const QueryToken& a, const QueryToken& b) {
                            return a.text == b.text;
                          }),
              query.end());

  std::unordered_map<uint32_t, double> entry_score;  // entry index -> score
  double query_norm = 0.0;
  for (const auto& tok : query) {
    auto it = local_of_global_.find(tok.global);
    if (it == local_of_global_.end()) continue;
    const double w = idf_[it->second];
    query_norm += w * w;
    for (uint32_t e : postings_[it->second]) {
      entry_score[e] += w * w;
    }
  }
  if (entry_score.empty()) return out;
  query_norm = std::sqrt(query_norm);

  // Keep best score per doc (a doc may be indexed under several labels).
  std::unordered_map<uint32_t, double> doc_score;
  for (const auto& [e, s] : entry_score) {
    const Entry& entry = entries_[e];
    double denom = entry.norm * (query_norm == 0.0 ? 1.0 : query_norm);
    double score = denom == 0.0 ? 0.0 : s / denom;
    auto [it, inserted] = doc_score.emplace(entry.doc, score);
    if (!inserted && score > it->second) it->second = score;
  }

  out.reserve(doc_score.size());
  for (const auto& [doc, score] : doc_score) out.push_back({doc, score});
  std::sort(out.begin(), out.end(), [](const LabelHit& a, const LabelHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

int32_t LabelIndex::BlockOf(std::string_view label) const {
  auto it = block_by_label_.find(util::NormalizeLabel(label));
  return it == block_by_label_.end() ? -1 : it->second;
}

double LabelIndex::BestLabelSimilarity(std::span<const uint32_t> tokens,
                                       uint32_t doc) const {
  assert(built_);
  double best = 0.0;
  auto it = entries_of_doc_.find(doc);
  if (it == entries_of_doc_.end()) return best;
  for (uint32_t e : it->second) {
    best = std::max(best, util::MongeElkanLevenshtein(
                              tokens, entries_[e].ordered, *dict_));
  }
  return best;
}

int32_t LabelIndex::BlockOfNormalized(std::string_view normalized) const {
  auto it = block_by_label_.find(std::string(normalized));
  return it == block_by_label_.end() ? -1 : it->second;
}

}  // namespace ltee::index
