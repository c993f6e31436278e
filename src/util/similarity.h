#ifndef LTEE_UTIL_SIMILARITY_H_
#define LTEE_UTIL_SIMILARITY_H_

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

/// Monge-Elkan similarity with Levenshtein as the inner similarity
/// function, as used by the paper's LABEL metrics: the mean over tokens of
/// `a` of the best inner similarity against tokens of `b`. The returned
/// value is symmetrized: max(ME(a,b), ME(b,a)).
double MongeElkanLevenshtein(const std::vector<std::string>& a,
                             const std::vector<std::string>& b);

/// Convenience overload operating on raw strings (tokenizes internally).
double MongeElkanLevenshtein(std::string_view a, std::string_view b);

/// Monge-Elkan over interned token lists (ordered, duplicates kept, like
/// Tokenize output). Ids are resolved through `dict` for the inner
/// Levenshtein similarity; equal ids short-circuit to 1.0. Numerically
/// identical to the string overload on the same token lists.
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
