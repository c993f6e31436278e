#ifndef LTEE_UTIL_SIMILARITY_H_
#define LTEE_UTIL_SIMILARITY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ltee::util {

class TokenDictionary;

/// Levenshtein edit distance between `a` and `b`.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized Levenshtein similarity in [0, 1]:
/// 1 - distance / max(|a|, |b|). Two empty strings are fully similar.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// The Monge-Elkan kernel behind every label similarity of the paper (row
/// and entity LABEL, KB-Label): for each direction, the mean over tokens of
/// one side of the best `sim` against the tokens of the other side; returns
/// max(ME(a,b), ME(b,a)). An empty side scores 1.0 against an empty side
/// and 0.0 otherwise. `sim` must not exceed 1.0: a token's inner loop stops
/// once its best reaches 1.0, which no later token can beat.
template <typename T, typename Sim>
double MongeElkan(std::span<const T> a, std::span<const T> b, Sim&& sim) {
  auto directed = [&sim](std::span<const T> x, std::span<const T> y) {
    if (x.empty()) return y.empty() ? 1.0 : 0.0;
    double sum = 0.0;
    for (const T& tx : x) {
      double best = 0.0;
      for (const T& ty : y) {
        best = std::max(best, sim(tx, ty));
        if (best == 1.0) break;
      }
      sum += best;
    }
    return sum / static_cast<double>(x.size());
  };
  return std::max(directed(a, b), directed(b, a));
}

/// MongeElkan with LevenshteinSimilarity as the inner similarity over the
/// util::Tokenize tokens of two raw strings.
double MongeElkanLevenshtein(std::string_view a, std::string_view b);

/// MongeElkan with LevenshteinSimilarity over interned token lists
/// (ordered, duplicates kept, like Tokenize output), resolved through
/// `dict`. Equal to the string overload on the same tokens.
double MongeElkanLevenshtein(std::span<const uint32_t> a,
                             std::span<const uint32_t> b,
                             const TokenDictionary& dict);

/// Cosine similarity of two *binary* term vectors given as interned token
/// sets. Both spans must be sorted and duplicate-free (see
/// util::SortedUnique).
double CosineBinary(std::span<const uint32_t> a_sorted,
                    std::span<const uint32_t> b_sorted);

/// Cosine similarity of two sparse real vectors keyed by uint32 ids.
double CosineSparse(const std::unordered_map<uint32_t, double>& a,
                    const std::unordered_map<uint32_t, double>& b);

/// Cosine similarity of two dense vectors (must be equal length).
double CosineDense(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace ltee::util

#endif  // LTEE_UTIL_SIMILARITY_H_
