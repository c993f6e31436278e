#ifndef LTEE_ROWCLUSTER_ROW_METRICS_H_
#define LTEE_ROWCLUSTER_ROW_METRICS_H_

#include <string>
#include <vector>

#include "ml/dataset.h"
#include "rowcluster/row_features.h"

namespace ltee::rowcluster {

/// The six row similarity metrics of Section 3.2, in the order the paper's
/// Table 7 aggregates them.
enum class RowMetric {
  kLabel = 0,
  kBow = 1,
  kPhi = 2,
  kAttribute = 3,
  kImplicitAtt = 4,
  kSameTable = 5,
};
inline constexpr int kNumRowMetrics = 6;
const char* RowMetricName(RowMetric metric);

/// Row sets whose labels hold more distinct tokens than this skip the
/// LABEL precompute: the quadratic similarity matrix would cost more than
/// it saves.
inline constexpr size_t kMaxLabelVocab = 2048;

/// Computes the enabled row-metric scores for a pair of rows of one
/// ClassRowSet. Metrics returning -1 are "not applicable" for the pair
/// (e.g. ATTRIBUTE without overlapping value pairs); confidences are 0 for
/// metrics that attach none.
class RowMetricBank {
 public:
  /// `enabled[i]` toggles metric i; the produced feature vectors contain
  /// one slot per *enabled* metric, in metric order.
  RowMetricBank(const ClassRowSet& rows, std::vector<bool> enabled);

  /// Similarity/confidence features of the pair (i, j).
  ml::ScoredFeatures Compare(int i, int j) const;

  int num_enabled() const { return num_enabled_; }
  const std::vector<bool>& enabled() const { return enabled_; }

  /// Names of the enabled metrics, in feature order.
  std::vector<std::string> EnabledNames() const;

 private:
  /// LABEL: the util::MongeElkan kernel over the precomputed
  /// token-similarity matrix, or util::MongeElkanLevenshtein when the
  /// matrix is off. Both feed the kernel the same Levenshtein similarities
  /// in the same order, so the two paths agree bit for bit.
  double LabelSimilarity(int i, int j) const;

  const ClassRowSet* rows_;
  std::vector<bool> enabled_;
  int num_enabled_ = 0;

  // LABEL fast path: label token ids remapped to a dense local vocabulary,
  // with all pairwise Levenshtein similarities precomputed once. Class row
  // sets reuse a small label vocabulary across hundreds of thousands of row
  // pairs, so this turns the Monge-Elkan inner loop into table lookups.
  // Disabled (empty) when the vocabulary is too large or rows lack a dict.
  std::vector<std::vector<uint32_t>> label_local_;  // per row, dense ids
  std::vector<double> token_sim_;                   // vocab_ * vocab_
  size_t vocab_ = 0;

  // PHI fast path: the metric only depends on the two table indices, so the
  // full table-by-table cosine matrix is precomputed up front.
  std::vector<double> phi_sim_;  // num_tables_ * num_tables_
  size_t num_tables_ = 0;
};

/// Convenience: mask enabling the first `k` metrics (the paper's Table 7
/// ablation rows), or all six when k >= 6.
std::vector<bool> FirstKMetrics(int k);

}  // namespace ltee::rowcluster

#endif  // LTEE_ROWCLUSTER_ROW_METRICS_H_
