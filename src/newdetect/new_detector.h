#ifndef LTEE_NEWDETECT_NEW_DETECTOR_H_
#define LTEE_NEWDETECT_NEW_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fusion/entity.h"
#include "index/label_index.h"
#include "kb/knowledge_base.h"
#include "ml/aggregator.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ltee::newdetect {

/// The six entity-to-instance similarity metrics of Section 3.4, in the
/// order Table 8 aggregates them.
enum class EntityMetric {
  kLabel = 0,
  kType = 1,
  kBow = 2,
  kAttribute = 3,
  kImplicitAtt = 4,
  kPopularity = 5,
};
inline constexpr int kNumEntityMetrics = 6;
const char* EntityMetricName(EntityMetric metric);

/// Mask enabling the first `k` metrics (Table 8 ablation), or all six.
std::vector<bool> FirstKEntityMetrics(int k);

/// Options of the new detection component.
struct NewDetectorOptions {
  std::vector<bool> enabled_metrics = FirstKEntityMetrics(kNumEntityMetrics);
  ml::AggregationKind aggregation = ml::AggregationKind::kCombined;
  /// Candidate instances retrieved per entity label.
  size_t candidates_per_entity = 10;
};

/// Classification of one created entity.
struct Detection {
  /// True when the entity does not exist in the KB yet.
  bool is_new = true;
  /// Correspondence to the matched instance (valid when !is_new and the
  /// match threshold was cleared; kInvalidInstance otherwise).
  kb::InstanceId instance = kb::kInvalidInstance;
  /// Aggregated similarity of the closest candidate (-1 when the entity
  /// had no candidates at all).
  double best_score = -1.0;
};

/// Ground truth for one entity during training.
struct DetectionLabel {
  bool is_new = true;
  kb::InstanceId instance = kb::kInvalidInstance;
};

/// New detection (Section 3.4): candidate selection from the KB label
/// index, six entity-to-instance metrics aggregated by a learned model,
/// and two learned thresholds deciding new / existing-with-correspondence.
class NewDetector {
 public:
  /// `kb_index` maps doc ids to KB instance ids and must outlive this.
  NewDetector(const kb::KnowledgeBase& kb, const index::LabelIndex& kb_index,
              NewDetectorOptions options = {});

  /// Candidate instances: label-index hits filtered to class-compatible
  /// instances ("of the class of the created entity or share one parent").
  std::vector<kb::InstanceId> Candidates(
      const fusion::CreatedEntity& entity) const;

  /// Metric features of (entity, candidate). `popularity_rank_score` is the
  /// rank-based POPULARITY similarity computed over the candidate set.
  ml::ScoredFeatures Compare(const fusion::CreatedEntity& entity,
                             kb::InstanceId instance,
                             double popularity_rank_score) const;

  /// Trains the aggregation and both thresholds from labeled entities.
  /// The aggregator trains on `pool` (inline when null); the result does
  /// not depend on its size.
  void Train(const std::vector<fusion::CreatedEntity>& entities,
             const std::vector<DetectionLabel>& labels, util::Rng& rng,
             util::ThreadPool* pool = nullptr);

  /// Classifies every entity.
  std::vector<Detection> Detect(
      const std::vector<fusion::CreatedEntity>& entities) const;

  std::vector<double> MetricImportances() const {
    return aggregator_.MetricImportances();
  }
  const ml::ScoreAggregator& aggregator() const { return aggregator_; }
  double new_threshold() const { return new_threshold_; }
  double match_threshold() const { return match_threshold_; }

 private:
  struct ScoredCandidate {
    kb::InstanceId instance;
    double score;
    /// Per-metric features; filled only when the provenance ledger is
    /// enabled (Detect() attaches them to its NewDetectDecision).
    ml::ScoredFeatures features;
  };
  /// Candidates with aggregated scores, best first.
  std::vector<ScoredCandidate> ScoreCandidates(
      const fusion::CreatedEntity& entity) const;

  /// Interned token lists of the entity's labels (one per label), computed
  /// once per entity so per-candidate comparisons skip re-tokenizing.
  std::vector<std::vector<uint32_t>> EntityLabelTokens(
      const fusion::CreatedEntity& entity) const;

  /// Compare with the entity's label tokens already computed.
  ml::ScoredFeatures CompareImpl(
      const fusion::CreatedEntity& entity,
      const std::vector<std::vector<uint32_t>>& label_tokens,
      kb::InstanceId instance_id, double popularity_rank_score) const;

  /// Sorted-unique interned bag-of-words of a KB instance (labels,
  /// abstract tokens, fact values), cached across comparisons.
  const std::vector<uint32_t>& InstanceBowIds(kb::InstanceId id) const;

  const kb::KnowledgeBase* kb_;
  const index::LabelIndex* kb_index_;
  NewDetectorOptions options_;
  ml::ScoreAggregator aggregator_;
  /// Lazily-built instance bow cache (behind a shared_ptr so the detector
  /// stays movable; guarded for concurrent Detect calls).
  struct BowCache {
    std::mutex mu;
    std::unordered_map<kb::InstanceId, std::vector<uint32_t>> bows;
  };
  std::shared_ptr<BowCache> bow_cache_ = std::make_shared<BowCache>();
  /// Entities whose best candidate scores below this are new.
  double new_threshold_ = 0.0;
  /// Entities whose best candidate scores at or above this receive a
  /// correspondence to that instance.
  double match_threshold_ = 0.0;
};

}  // namespace ltee::newdetect

#endif  // LTEE_NEWDETECT_NEW_DETECTOR_H_
