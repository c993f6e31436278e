#include "cluster/correlation_clusterer.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/thread_pool.h"

namespace ltee::cluster {

namespace {

/// Worker threads of the greedy phase's pool (0 = hardware concurrency).
constexpr size_t kGreedyThreads = 0;

/// Maximum KLj improvement sweeps.
constexpr int kMaxKljPasses = 4;

/// Mutable clustering state shared by both phases.
struct State {
  std::vector<int> cluster_of;                 // item -> cluster id
  std::vector<std::vector<int>> members;       // cluster id -> items
  std::vector<std::unordered_set<int32_t>> cluster_blocks;  // cluster -> blocks

  int NewCluster() {
    members.emplace_back();
    cluster_blocks.emplace_back();
    return static_cast<int>(members.size()) - 1;
  }

  void Assign(int item, int cluster,
              const std::vector<std::vector<int32_t>>& blocks_of) {
    cluster_of[item] = cluster;
    members[cluster].push_back(item);
    for (int32_t b : blocks_of[item]) cluster_blocks[cluster].insert(b);
  }
};

double SumSimilarity(int item, const std::vector<int>& cluster_members,
                     const SimilarityFn& sim) {
  double s = 0.0;
  for (int other : cluster_members) {
    if (other != item) s += sim(item, other);
  }
  return s;
}

}  // namespace

ClusteringResult ClusterCorrelation(
    size_t num_items, const SimilarityFn& similarity,
    const std::vector<std::vector<int32_t>>& blocks_of,
    const ClusteringOptions& options) {
  State state;
  state.cluster_of.assign(num_items, -1);

  // block id -> clusters currently containing an item of that block.
  std::unordered_map<int32_t, std::vector<int>> clusters_by_block;

  util::ThreadPool pool(kGreedyThreads);

  // ---- Phase 1: parallel greedy assignment -----------------------------
  size_t next = 0;
  while (next < num_items) {
    const size_t begin = next;
    const size_t end = std::min(num_items, begin + options.batch_size);
    next = end;
    // For each item of the batch, compute the best cluster against the
    // snapshot taken at batch start.
    std::vector<int> best_cluster(end - begin, -1);
    std::vector<double> best_score(end - begin, 0.0);
    pool.ParallelFor(end - begin, [&](size_t k) {
      const int item = static_cast<int>(begin + k);
      // Candidate clusters: those sharing a block with the item.
      std::unordered_set<int> seen;
      std::vector<int> candidates;
      for (int32_t b : blocks_of[item]) {
        auto it = clusters_by_block.find(b);
        if (it == clusters_by_block.end()) continue;
        for (int c : it->second) {
          if (seen.insert(c).second) candidates.push_back(c);
          if (candidates.size() >= options.max_candidate_clusters) break;
        }
        if (candidates.size() >= options.max_candidate_clusters) break;
      }
      double best = 0.0;
      int arg = -1;
      for (int c : candidates) {
        const double s = SumSimilarity(item, state.members[c], similarity);
        if (s > best) {
          best = s;
          arg = c;
        }
      }
      best_cluster[k] = arg;
      best_score[k] = best;
    });
    // Apply sequentially (snapshot semantics; stale choices are possible
    // and later repaired by KLj, mirroring the paper's design).
    for (size_t k = 0; k < end - begin; ++k) {
      const int item = static_cast<int>(begin + k);
      int target = best_cluster[k];
      if (target < 0) {
        target = state.NewCluster();
      }
      state.Assign(item, target, blocks_of);
      for (int32_t b : blocks_of[item]) {
        auto& list = clusters_by_block[b];
        if (std::find(list.begin(), list.end(), target) == list.end()) {
          list.push_back(target);
        }
      }
    }
  }

  // ---- Phase 2: KLj refinement -----------------------------------------
  int operations = 0;
  if (options.enable_klj) {
    for (int pass = 0; pass < kMaxKljPasses; ++pass) {
      bool changed = false;

      // (a) Splits: an item whose summed similarity to the rest of its
      // cluster is negative improves the fitness by leaving.
      for (size_t item = 0; item < num_items; ++item) {
        const int c = state.cluster_of[item];
        if (state.members[c].size() <= 1) continue;
        const double contribution =
            SumSimilarity(static_cast<int>(item), state.members[c], similarity);
        if (contribution < 0.0) {
          auto& m = state.members[c];
          m.erase(std::find(m.begin(), m.end(), static_cast<int>(item)));
          const int fresh = state.NewCluster();
          state.Assign(static_cast<int>(item), fresh, blocks_of);
          for (int32_t b : blocks_of[item]) {
            clusters_by_block[b].push_back(fresh);
          }
          changed = true;
          ++operations;
        }
      }

      // (b) Merge / move between block-sharing cluster pairs.
      // Enumerate candidate pairs once per pass.
      std::unordered_set<int64_t> considered;
      for (const auto& [block, clusters] : clusters_by_block) {
        for (size_t i = 0; i < clusters.size(); ++i) {
          const int a = clusters[i];
          if (state.members[a].empty()) continue;
          for (size_t j = i + 1; j < clusters.size(); ++j) {
            const int b = clusters[j];
            if (a == b || state.members[b].empty()) continue;
            const int lo = std::min(a, b), hi = std::max(a, b);
            const int64_t key = (static_cast<int64_t>(lo) << 32) | hi;
            if (!considered.insert(key).second) continue;

            // Gain of a full merge: sum of inter-cluster similarities.
            double merge_gain = 0.0;
            for (int x : state.members[lo]) {
              merge_gain += SumSimilarity(x, state.members[hi], similarity);
            }
            if (merge_gain > 0.0) {
              for (int x : state.members[hi]) {
                state.cluster_of[x] = lo;
                state.members[lo].push_back(x);
              }
              for (int32_t blk : state.cluster_blocks[hi]) {
                state.cluster_blocks[lo].insert(blk);
                clusters_by_block[blk].push_back(lo);
              }
              state.members[hi].clear();
              state.cluster_blocks[hi].clear();
              changed = true;
              ++operations;
              continue;
            }

            // Single-item moves in both directions.
            for (auto [from, to] : {std::pair<int, int>{lo, hi},
                                    std::pair<int, int>{hi, lo}}) {
              if (state.members[from].size() <= 1) continue;
              bool moved = true;
              while (moved && state.members[from].size() > 1) {
                moved = false;
                for (int x : state.members[from]) {
                  const double own =
                      SumSimilarity(x, state.members[from], similarity);
                  const double other =
                      SumSimilarity(x, state.members[to], similarity);
                  if (other > own && other > 0.0) {
                    auto& m = state.members[from];
                    m.erase(std::find(m.begin(), m.end(), x));
                    state.cluster_of[x] = to;
                    state.members[to].push_back(x);
                    for (int32_t blk : blocks_of[x]) {
                      state.cluster_blocks[to].insert(blk);
                      clusters_by_block[blk].push_back(to);
                    }
                    changed = true;
                    moved = true;
                    ++operations;
                    break;
                  }
                }
              }
            }
          }
        }
      }
      if (!changed) break;
    }
  }

  // ---- Compact cluster ids and compute fitness --------------------------
  ClusteringResult result;
  result.cluster_of.assign(num_items, -1);
  std::unordered_map<int, int> remap;
  for (size_t item = 0; item < num_items; ++item) {
    const int c = state.cluster_of[item];
    auto [it, inserted] = remap.emplace(c, static_cast<int>(remap.size()));
    result.cluster_of[item] = it->second;
  }
  result.num_clusters = static_cast<int>(remap.size());
  result.klj_operations = operations;

  double fitness = 0.0;
  std::vector<std::vector<int>> final_members(result.num_clusters);
  for (size_t item = 0; item < num_items; ++item) {
    final_members[result.cluster_of[item]].push_back(static_cast<int>(item));
  }
  for (const auto& m : final_members) {
    for (size_t i = 0; i < m.size(); ++i) {
      for (size_t j = i + 1; j < m.size(); ++j) {
        fitness += similarity(m[i], m[j]);
      }
    }
  }
  result.fitness = fitness;
  return result;
}

}  // namespace ltee::cluster
