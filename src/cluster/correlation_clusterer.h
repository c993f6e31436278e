#ifndef LTEE_CLUSTER_CORRELATION_CLUSTERER_H_
#define LTEE_CLUSTER_CORRELATION_CLUSTERER_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace ltee::cluster {

/// Pairwise similarity callback over item indices, returning values in
/// [-1, 1] (positive = same entity). Symmetry is not required: the
/// clusterer calls it in whichever argument order a phase reaches the pair,
/// so a callback that memoizes pairs keeps the score of the first call.
/// Called concurrently from worker threads during the greedy phase, so it
/// must be thread-safe.
using SimilarityFn = std::function<double(int, int)>;

/// Options of the two-phase correlation clustering (Section 3.2).
struct ClusteringOptions {
  /// Items per parallel batch; within one batch assignments are computed
  /// against a frozen snapshot of the clustering (the controlled source of
  /// "errors during clustering" the KLj phase repairs).
  size_t batch_size = 256;
  /// Upper bound on clusters examined per item in the greedy phase
  /// (blocking already restricts candidates; this is a safety cap).
  size_t max_candidate_clusters = 64;
  /// Disables the KLj refinement (for the ablation bench).
  bool enable_klj = true;
};

/// Result of a clustering run: cluster id per item (dense, 0-based) and the
/// final local fitness (sum of intra-cluster pair similarities).
struct ClusteringResult {
  std::vector<int> cluster_of;
  int num_clusters = 0;
  double fitness = 0.0;
  int klj_operations = 0;  // merges + moves + splits applied
};

/// Greedy correlation clustering with Kernighan-Lin-with-joins refinement.
///
/// Phase 1 (parallel greedy, Elsner & Charniak / Elsner & Schudy): items
/// are scanned in batches; each item is assigned to the existing cluster
/// with the highest positive summed similarity to the cluster's members,
/// or to a fresh singleton cluster when no sum is positive. Batches are
/// evaluated in parallel against a snapshot, on a hardware-sized pool owned
/// by the call, then applied sequentially.
///
/// Phase 2 (KLj, Keuper et al.): repeatedly considers block-sharing
/// cluster pairs and applies whole-cluster merges and single-item moves,
/// plus splits of items whose contribution to their cluster is negative,
/// until no operation improves the fitness (at most four sweeps).
///
/// `blocks_of[i]` lists the block ids of item i (sorted not required).
/// Blocks restrict which *clusters* are candidates: an item is only tested
/// against clusters holding an item of one of its blocks, and only
/// block-sharing cluster pairs are tried in KLj. A tested cluster is
/// scored over all its members, so pairs sharing no block are compared
/// too. Pass every item a common block to disable blocking.
ClusteringResult ClusterCorrelation(
    size_t num_items, const SimilarityFn& similarity,
    const std::vector<std::vector<int32_t>>& blocks_of,
    const ClusteringOptions& options = {});

}  // namespace ltee::cluster

#endif  // LTEE_CLUSTER_CORRELATION_CLUSTERER_H_
