#include "rowcluster/row_clusterer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "index/label_index.h"
#include "prov/ledger.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace ltee::rowcluster {

namespace {

/// Similar labels retrieved per row to form its block set.
constexpr size_t kBlockingCandidates = 10;

/// Cap on training pairs sampled per class.
constexpr size_t kMaxTrainingPairs = 20000;

/// Pair scores with |score| below this margin count as near-threshold
/// decisions (the `ltee.prov.cluster_decisions_near_threshold` quality
/// counter): the correlation clusterer merges on sign, so these are the
/// pairs a small quality drift can flip.
constexpr double kNearThresholdMargin = 0.1;

}  // namespace

RowClusterer::RowClusterer(RowClustererOptions options)
    : options_(std::move(options)) {}

std::vector<std::vector<int32_t>> RowClusterer::BuildBlocks(
    const ClassRowSet& rows) const {
  std::vector<std::vector<int32_t>> blocks(rows.rows.size());
  if (!options_.enable_blocking) {
    for (auto& b : blocks) b.push_back(0);
    return blocks;
  }
  // One block per distinct normalized label; each row joins its own block
  // plus the blocks of similar labels retrieved from a Lucene-style index.
  // Labels arrive pre-tokenized from the prepared corpus, so the index is
  // fed and queried with interned token ids.
  index::LabelIndex label_index(rows.dict);
  std::unordered_map<std::string, int32_t> block_of_label;
  for (const auto& row : rows.rows) {
    auto [it, inserted] = block_of_label.emplace(
        row.normalized_label, static_cast<int32_t>(block_of_label.size()));
    if (inserted) {
      label_index.AddTokens(static_cast<uint32_t>(it->second),
                            row.normalized_label, row.label_tokens);
    }
  }
  label_index.Build();
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    const auto& row = rows.rows[i];
    blocks[i].push_back(block_of_label[row.normalized_label]);
    for (const auto& hit : label_index.Search(row.label_tokens,
                                              kBlockingCandidates)) {
      const int32_t block = static_cast<int32_t>(hit.doc);
      if (std::find(blocks[i].begin(), blocks[i].end(), block) ==
          blocks[i].end()) {
        blocks[i].push_back(block);
      }
    }
  }
  return blocks;
}

void RowClusterer::Train(const ClassRowSet& rows,
                         const std::vector<int>& gold_cluster_of_row,
                         util::Rng& rng, util::ThreadPool* pool) {
  RowMetricBank bank(rows, options_.enabled_metrics);
  const auto blocks = BuildBlocks(rows);

  // Block -> rows map for hard-negative mining.
  std::unordered_map<int32_t, std::vector<int>> rows_by_block;
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (int32_t b : blocks[i]) {
      rows_by_block[b].push_back(static_cast<int>(i));
    }
  }

  std::vector<ml::Example> examples;
  auto add_pair = [&](int i, int j, bool positive) {
    ml::Example ex;
    ex.features = bank.Compare(i, j);
    ex.target = positive ? 1.0 : -1.0;
    examples.push_back(std::move(ex));
  };

  // Positive pairs: all same-cluster pairs of annotated rows.
  std::unordered_map<int, std::vector<int>> rows_by_cluster;
  for (size_t i = 0; i < gold_cluster_of_row.size(); ++i) {
    if (gold_cluster_of_row[i] >= 0) {
      rows_by_cluster[gold_cluster_of_row[i]].push_back(static_cast<int>(i));
    }
  }
  for (const auto& [cluster, members] : rows_by_cluster) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (examples.size() >= kMaxTrainingPairs) break;
        add_pair(members[i], members[j], true);
      }
    }
  }

  // Negative pairs: block-sharing annotated rows from different clusters
  // (the hard cases blocking lets through).
  for (const auto& [block, members] : rows_by_block) {
    for (size_t i = 0; i < members.size(); ++i) {
      const int ci = gold_cluster_of_row[members[i]];
      if (ci < 0) continue;
      for (size_t j = i + 1; j < members.size(); ++j) {
        const int cj = gold_cluster_of_row[members[j]];
        if (cj < 0 || ci == cj) continue;
        if (examples.size() >= kMaxTrainingPairs) break;
        add_pair(members[i], members[j], false);
      }
    }
  }

  // A sprinkle of random easy negatives keeps the scale calibrated.
  const size_t random_negatives =
      std::min<size_t>(examples.size() / 2 + 1, 2000);
  const size_t n = rows.rows.size();
  for (size_t k = 0; k < random_negatives && n >= 2; ++k) {
    const int i = static_cast<int>(rng.NextBounded(n));
    const int j = static_cast<int>(rng.NextBounded(n));
    if (i == j) continue;
    const int ci = gold_cluster_of_row[i], cj = gold_cluster_of_row[j];
    if (ci < 0 || cj < 0 || ci == cj) continue;
    add_pair(i, j, false);
  }

  aggregator_.Train(std::move(examples), options_.aggregation, rng, pool);

  // ---- Cluster-level threshold calibration ------------------------------
  // Pairwise training calibrates the sign of individual pair scores, but
  // the greedy correlation clusterer sums scores over cluster members, so
  // a small systematic bias compounds into over- or under-merging. Sweep a
  // score offset on the learning rows and keep the one maximizing a
  // count-penalized pairwise F1 (the clustering analogue of the paper's
  // learned decision threshold).
  std::vector<bool> annotated(rows.rows.size(), false);
  size_t num_annotated = 0;
  for (size_t i = 0; i < gold_cluster_of_row.size(); ++i) {
    if (gold_cluster_of_row[i] >= 0) {
      annotated[i] = true;
      ++num_annotated;
    }
  }
  if (num_annotated < 10) return;
  const ClassRowSet learning_rows = FilterRows(rows, annotated);
  std::vector<int> learning_gold;
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    if (annotated[i]) learning_gold.push_back(gold_cluster_of_row[i]);
  }
  std::unordered_map<int, int> gold_sizes;
  for (int g : learning_gold) gold_sizes[g] += 1;

  double best_objective = -1.0;
  double best_offset = 0.0;
  const RowMetricBank learning_bank(learning_rows, options_.enabled_metrics);
  const auto learning_blocks = BuildBlocks(learning_rows);
  for (double offset : {-0.1, 0.0, 0.1, 0.25}) {
    const auto result =
        ClusterWithOffset(learning_rows, learning_bank, learning_blocks,
                          offset, /*count_near_threshold=*/false);
    // Pairwise precision/recall over annotated rows.
    long long tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < learning_gold.size(); ++i) {
      for (size_t j = i + 1; j < learning_gold.size(); ++j) {
        const bool same_sys = result.cluster_of[i] == result.cluster_of[j];
        const bool same_gold = learning_gold[i] == learning_gold[j];
        if (same_sys && same_gold) ++tp;
        else if (same_sys && !same_gold) ++fp;
        else if (!same_sys && same_gold) ++fn;
      }
    }
    const double p = tp + fp == 0 ? 1.0 : static_cast<double>(tp) / (tp + fp);
    const double r = tp + fn == 0 ? 1.0 : static_cast<double>(tp) / (tp + fn);
    const double pair_f1 = p + r == 0.0 ? 0.0 : 2 * p * r / (p + r);
    const double count_ratio =
        std::min<double>(gold_sizes.size(), result.num_clusters) /
        std::max<double>(1.0, std::max<double>(gold_sizes.size(),
                                               result.num_clusters));
    const double objective = pair_f1 * count_ratio;
    if (objective > best_objective) {
      best_objective = objective;
      best_offset = offset;
    }
  }
  score_offset_ = best_offset;
}

cluster::ClusteringResult RowClusterer::Cluster(
    const ClassRowSet& rows) const {
  RowMetricBank bank(rows, options_.enabled_metrics);
  cluster::ClusteringResult result =
      ClusterWithOffset(rows, bank, BuildBlocks(rows), score_offset_,
                        /*count_near_threshold=*/true);
  if (prov::IsEnabled()) RecordClusterDecisions(rows, bank, result);
  if (result.num_clusters > 0) {
    std::vector<uint64_t> sizes(static_cast<size_t>(result.num_clusters), 0);
    for (int c : result.cluster_of) {
      if (c >= 0 && c < result.num_clusters) ++sizes[static_cast<size_t>(c)];
    }
    util::Histogram& hist = util::Metrics().GetHistogram(
        "ltee.rowcluster.cluster_size", util::ExponentialBuckets(1.0, 2.0, 10));
    for (uint64_t size : sizes) hist.Observe(static_cast<double>(size));
  }
  return result;
}

namespace {

/// Marks a pair-score slot that is not filled yet. Scores are clamped to
/// [-1, 1], so no score equals it; a NaN score, which the clamp passes
/// through, is memoized like any other.
constexpr double kUnscored = 2.0;

/// Index of pair (i, j), i < j, in an upper-triangular row-major layout.
inline size_t TriIndex(size_t i, size_t j, size_t n) {
  return i * (2 * n - i - 1) / 2 + (j - i - 1);
}

/// Call-local pair-cache tallies. Lookups bump these relaxed atomics (one
/// shared struct per ClusterWithOffset call, so contention stays within
/// that call's workers) and the totals are flushed to the registry once
/// clustering finishes — the hot path never touches registry counters.
struct PairCacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  /// Computed pair scores whose magnitude fell inside the near-threshold
  /// margin (each unique pair tallied once, at first computation).
  std::atomic<uint64_t> near_threshold{0};
};

/// Flushes one call's tallies into `ltee.rowcluster.pair_cache.*` and
/// refreshes the process-wide hit-ratio gauge. `flush_near_threshold`
/// additionally folds the near-threshold tally into the
/// `ltee.prov.cluster_decisions_near_threshold` quality counter.
void FlushPairCacheStats(const PairCacheStats& stats,
                         bool flush_near_threshold) {
  const uint64_t hits = stats.hits.load(std::memory_order_relaxed);
  const uint64_t misses = stats.misses.load(std::memory_order_relaxed);
  util::MetricsRegistry& metrics = util::Metrics();
  if (flush_near_threshold) {
    metrics.GetCounter("ltee.prov.cluster_decisions_near_threshold")
        .Increment(stats.near_threshold.load(std::memory_order_relaxed));
  }
  util::Counter& hit_counter =
      metrics.GetCounter("ltee.rowcluster.pair_cache.hits");
  util::Counter& miss_counter =
      metrics.GetCounter("ltee.rowcluster.pair_cache.misses");
  hit_counter.Increment(hits);
  miss_counter.Increment(misses);
  const uint64_t total_hits = hit_counter.value();
  const uint64_t total = total_hits + miss_counter.value();
  if (total > 0) {
    metrics.GetGauge("ltee.rowcluster.pair_cache.hit_ratio")
        .Set(static_cast<double>(total_hits) / static_cast<double>(total));
  }
}

}  // namespace

cluster::ClusteringResult RowClusterer::ClusterWithOffset(
    const ClassRowSet& rows, const RowMetricBank& bank,
    const std::vector<std::vector<int32_t>>& blocks, double offset,
    bool count_near_threshold) const {
  const size_t n = rows.rows.size();
  util::trace::ScopedSpan span("rowcluster.cluster");
  span.AddArg("rows", n);

  // The greedy and KLj phases revisit pairs many times. Each pair score is
  // a pure function of (i, j), so a lazy triangular table serves repeat
  // lookups lock-free: a racing duplicate computation stores the identical
  // value, so no synchronization beyond the atomic slot is needed.
  const size_t num_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  const size_t dense_bytes = num_pairs * sizeof(std::atomic<double>);
  span.AddArg("dense_bytes", dense_bytes);
  util::Metrics()
      .GetGauge("ltee.rowcluster.pair_cache.dense_bytes")
      .Max(static_cast<double>(dense_bytes));
  std::unique_ptr<std::atomic<double>[]> scores(
      new std::atomic<double>[num_pairs]);
  for (size_t k = 0; k < num_pairs; ++k) {
    scores[k].store(kUnscored, std::memory_order_relaxed);
  }
  PairCacheStats stats;
  auto similarity = [&](int i, int j) -> double {
    const size_t lo = static_cast<size_t>(std::min(i, j));
    const size_t hi = static_cast<size_t>(std::max(i, j));
    std::atomic<double>& slot = scores[TriIndex(lo, hi, n)];
    double s = slot.load(std::memory_order_relaxed);
    if (s != kUnscored) {
      stats.hits.fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    stats.misses.fetch_add(1, std::memory_order_relaxed);
    // Caller argument order matters: ATTRIBUTE and IMPLICIT_ATT are not
    // perfectly symmetric, and the cached value has always been the one
    // computed at the pair's first encounter.
    s = std::clamp(aggregator_.Score(bank.Compare(i, j)) + offset, -1.0, 1.0);
    if (s > -kNearThresholdMargin && s < kNearThresholdMargin) {
      stats.near_threshold.fetch_add(1, std::memory_order_relaxed);
    }
    slot.store(s, std::memory_order_relaxed);
    return s;
  };
  auto result = cluster::ClusterCorrelation(n, similarity, blocks,
                                            options_.clustering);
  FlushPairCacheStats(stats, count_near_threshold);
  span.AddArg("clusters", static_cast<long long>(result.num_clusters));
  return result;
}

void RowClusterer::RecordClusterDecisions(
    const ClassRowSet& rows, const RowMetricBank& bank,
    const cluster::ClusteringResult& result) const {
  // Emitted after clustering (never from the parallel similarity lambdas)
  // so the event set and order are pure functions of the clustering — the
  // ledger export stays byte-identical across fixed-seed runs.
  const auto names = bank.EnabledNames();
  std::vector<std::vector<int>> members(
      static_cast<size_t>(std::max(0, result.num_clusters)));
  for (size_t i = 0; i < result.cluster_of.size(); ++i) {
    const int c = result.cluster_of[i];
    if (c >= 0 && c < result.num_clusters) {
      members[static_cast<size_t>(c)].push_back(static_cast<int>(i));
    }
  }
  // Support = best similarity to a co-member; a capped scan keeps the
  // ledger pass linear in cluster size for degenerate mega-clusters, and
  // a per-cluster pair memo avoids scoring each scanned pair from both
  // ends (this pass is the bulk of the ledger's end-to-end overhead).
  constexpr size_t kSupportScanCap = 8;
  std::unordered_map<uint64_t, double> pair_scores;
  for (size_t c = 0; c < members.size(); ++c) {
    pair_scores.clear();
    const auto score_of = [&](int a, int b) {
      const uint64_t key =
          (static_cast<uint64_t>(static_cast<uint32_t>(std::min(a, b)))
           << 32) |
          static_cast<uint32_t>(std::max(a, b));
      if (const auto it = pair_scores.find(key); it != pair_scores.end()) {
        return it->second;
      }
      const double s = std::clamp(
          aggregator_.Score(bank.Compare(a, b)) + score_offset_, -1.0, 1.0);
      pair_scores.emplace(key, s);
      return s;
    };
    for (int i : members[c]) {
      prov::ClusterDecision decision;
      decision.cls = rows.cls;
      decision.table = rows.rows[static_cast<size_t>(i)].ref.table;
      decision.row = rows.rows[static_cast<size_t>(i)].ref.row;
      decision.cluster_id = static_cast<int>(c);
      decision.cluster_size = static_cast<int>(members[c].size());
      decision.threshold = score_offset_;
      double best = 0.0;
      int best_j = -1;
      size_t scanned = 0;
      for (int j : members[c]) {
        if (j == i) continue;
        if (++scanned > kSupportScanCap) break;
        const double s = score_of(i, j);
        if (best_j < 0 || s > best) {
          best = s;
          best_j = j;
        }
      }
      if (best_j >= 0) {
        decision.support = best;
        decision.support_table = rows.rows[static_cast<size_t>(best_j)].ref.table;
        decision.support_row = rows.rows[static_cast<size_t>(best_j)].ref.row;
        const auto features = bank.Compare(i, best_j);
        for (size_t m = 0; m < features.sims.size() && m < names.size(); ++m) {
          decision.components.emplace_back(names[m], features.sims[m]);
        }
      }
      prov::Record(std::move(decision));
    }
  }
}

}  // namespace ltee::rowcluster
