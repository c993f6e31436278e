#include "newdetect/new_detector.h"

#include <algorithm>
#include <unordered_set>

#include "prov/ledger.h"
#include "types/type_similarity.h"
#include "util/metric_names.h"
#include "util/metrics.h"
#include "util/similarity.h"
#include "util/string_util.h"
#include "util/token_dictionary.h"
#include "util/trace.h"

namespace ltee::newdetect {

namespace {

const types::TypeSimilarityOptions kSimOptions;

std::pair<double, double> AttributeSimilarity(
    const fusion::CreatedEntity& entity, const kb::KnowledgeBase& kb,
    kb::InstanceId instance_id) {
  int pairs = 0;
  double sum = 0.0;
  for (const auto& fact : entity.facts) {
    const types::Value* kb_fact = kb.FactOf(instance_id, fact.property);
    if (kb_fact == nullptr) continue;
    ++pairs;
    sum += types::ValuesEqual(fact.value, *kb_fact, kSimOptions) ? 1.0 : 0.0;
  }
  if (pairs == 0) return {-1.0, 0.0};
  return {sum / pairs, static_cast<double>(pairs)};
}

std::pair<double, double> ImplicitSimilarity(
    const fusion::CreatedEntity& entity, const kb::KnowledgeBase& kb,
    kb::InstanceId instance_id) {
  double weighted_sum = 0.0, weight = 0.0;
  for (const auto& implicit : entity.implicit_attrs) {
    const types::Value* kb_fact = kb.FactOf(instance_id, implicit.property);
    if (kb_fact == nullptr) continue;
    const double equal =
        types::ValuesEqual(implicit.value, *kb_fact, kSimOptions) ? 1.0 : 0.0;
    weighted_sum += implicit.score * equal;
    weight += implicit.score;
  }
  if (weight == 0.0) return {-1.0, 0.0};
  return {weighted_sum / weight, weight};
}

}  // namespace

const char* EntityMetricName(EntityMetric metric) {
  switch (metric) {
    case EntityMetric::kLabel: return "LABEL";
    case EntityMetric::kType: return "TYPE";
    case EntityMetric::kBow: return "BOW";
    case EntityMetric::kAttribute: return "ATTRIBUTE";
    case EntityMetric::kImplicitAtt: return "IMPLICIT_ATT";
    case EntityMetric::kPopularity: return "POPULARITY";
  }
  return "?";
}

std::vector<bool> FirstKEntityMetrics(int k) {
  std::vector<bool> mask(kNumEntityMetrics, false);
  for (int i = 0; i < std::min(k, kNumEntityMetrics); ++i) mask[i] = true;
  return mask;
}

NewDetector::NewDetector(const kb::KnowledgeBase& kb,
                         const index::LabelIndex& kb_index,
                         NewDetectorOptions options)
    : kb_(&kb), kb_index_(&kb_index), options_(std::move(options)) {
  options_.enabled_metrics.resize(kNumEntityMetrics, false);
}

std::vector<kb::InstanceId> NewDetector::Candidates(
    const fusion::CreatedEntity& entity) const {
  std::vector<kb::InstanceId> out;
  std::unordered_set<kb::InstanceId> seen;
  for (const auto& label : entity.labels) {
    for (const auto& hit :
         kb_index_->Search(label, options_.candidates_per_entity)) {
      const kb::InstanceId id = static_cast<kb::InstanceId>(hit.doc);
      if (!seen.insert(id).second) continue;
      const kb::Instance& instance = kb_->instance(id);
      if (entity.cls != kb::kInvalidClass &&
          !kb_->ClassesCompatible(entity.cls, instance.cls)) {
        continue;
      }
      out.push_back(id);
    }
  }
  return out;
}

std::vector<std::vector<uint32_t>> NewDetector::EntityLabelTokens(
    const fusion::CreatedEntity& entity) const {
  util::TokenDictionary* dict = kb_index_->dict_ptr().get();
  std::vector<std::vector<uint32_t>> out;
  out.reserve(entity.labels.size());
  for (const auto& label : entity.labels) {
    out.push_back(dict->InternTokens(label));
  }
  return out;
}

const std::vector<uint32_t>& NewDetector::InstanceBowIds(
    kb::InstanceId id) const {
  std::lock_guard<std::mutex> lock(bow_cache_->mu);
  auto it = bow_cache_->bows.find(id);
  if (it != bow_cache_->bows.end()) return it->second;

  util::TokenDictionary* dict = kb_index_->dict_ptr().get();
  const kb::Instance& instance = kb_->instance(id);
  std::vector<uint32_t> bow;
  for (const auto& label : instance.labels) {
    for (uint32_t tok : dict->InternTokens(label)) bow.push_back(tok);
  }
  for (const auto& tok : instance.abstract_tokens) {
    bow.push_back(dict->Intern(tok));
  }
  for (const auto& fact : instance.facts) {
    for (uint32_t tok : dict->InternTokens(fact.value.ToString())) {
      bow.push_back(tok);
    }
  }
  auto [inserted, unused] =
      bow_cache_->bows.emplace(id, util::SortedUnique(std::move(bow)));
  return inserted->second;
}

ml::ScoredFeatures NewDetector::Compare(const fusion::CreatedEntity& entity,
                                        kb::InstanceId instance_id,
                                        double popularity_rank_score) const {
  return CompareImpl(entity, EntityLabelTokens(entity), instance_id,
                     popularity_rank_score);
}

ml::ScoredFeatures NewDetector::CompareImpl(
    const fusion::CreatedEntity& entity,
    const std::vector<std::vector<uint32_t>>& label_tokens,
    kb::InstanceId instance_id, double popularity_rank_score) const {
  const kb::Instance& instance = kb_->instance(instance_id);
  ml::ScoredFeatures out;
  auto push = [&out](double sim, double conf) {
    out.sims.push_back(sim);
    out.confs.push_back(conf);
  };
  const auto& enabled = options_.enabled_metrics;
  if (enabled[static_cast<int>(EntityMetric::kLabel)]) {
    // Max Monge-Elkan over (entity label, indexed instance label) pairs;
    // labels normalizing to nothing score zero against the non-empty
    // entity labels, exactly as they would if compared directly.
    double best = 0.0;
    for (const auto& tokens : label_tokens) {
      best = std::max(best, kb_index_->BestLabelSimilarity(
                                tokens, static_cast<uint32_t>(instance_id)));
    }
    push(best, 0.0);
  }
  if (enabled[static_cast<int>(EntityMetric::kType)]) {
    push(entity.cls == kb::kInvalidClass
             ? -1.0
             : kb_->ClassOverlap(entity.cls, instance.cls),
         0.0);
  }
  if (enabled[static_cast<int>(EntityMetric::kBow)]) {
    push(util::CosineBinary(entity.bow, InstanceBowIds(instance_id)), 0.0);
  }
  if (enabled[static_cast<int>(EntityMetric::kAttribute)]) {
    auto [sim, conf] = AttributeSimilarity(entity, *kb_, instance_id);
    push(sim, conf);
  }
  if (enabled[static_cast<int>(EntityMetric::kImplicitAtt)]) {
    auto [sim, conf] = ImplicitSimilarity(entity, *kb_, instance_id);
    push(sim, conf);
  }
  if (enabled[static_cast<int>(EntityMetric::kPopularity)]) {
    push(popularity_rank_score, 0.0);
  }
  return out;
}

std::vector<NewDetector::ScoredCandidate> NewDetector::ScoreCandidates(
    const fusion::CreatedEntity& entity) const {
  auto candidates = Candidates(entity);
  const auto label_tokens = EntityLabelTokens(entity);
  // POPULARITY: rank candidates by incoming-page-link popularity; a single
  // candidate scores 1.0, the k-th most popular scores 1/k.
  std::vector<kb::InstanceId> by_popularity = candidates;
  std::sort(by_popularity.begin(), by_popularity.end(),
            [&](kb::InstanceId a, kb::InstanceId b) {
              return kb_->instance(a).popularity > kb_->instance(b).popularity;
            });
  std::vector<ScoredCandidate> out;
  out.reserve(candidates.size());
  for (kb::InstanceId id : candidates) {
    const auto rank_it =
        std::find(by_popularity.begin(), by_popularity.end(), id);
    const double rank = static_cast<double>(rank_it - by_popularity.begin()) + 1.0;
    const double pop_score = candidates.size() == 1 ? 1.0 : 1.0 / rank;
    ScoredCandidate scored;
    scored.instance = id;
    ml::ScoredFeatures features =
        CompareImpl(entity, label_tokens, id, pop_score);
    scored.score = aggregator_.Score(features);
    if (prov::IsEnabled()) scored.features = std::move(features);
    out.push_back(std::move(scored));
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.score > b.score;
            });
  return out;
}

void NewDetector::Train(const std::vector<fusion::CreatedEntity>& entities,
                        const std::vector<DetectionLabel>& labels,
                        util::Rng& rng, util::ThreadPool* pool) {
  // ---- 1. Pairwise aggregation training. --------------------------------
  std::vector<ml::Example> examples;
  for (size_t e = 0; e < entities.size(); ++e) {
    auto candidates = Candidates(entities[e]);
    const auto label_tokens = EntityLabelTokens(entities[e]);
    std::vector<kb::InstanceId> by_popularity = candidates;
    std::sort(by_popularity.begin(), by_popularity.end(),
              [&](kb::InstanceId a, kb::InstanceId b) {
                return kb_->instance(a).popularity >
                       kb_->instance(b).popularity;
              });
    for (kb::InstanceId id : candidates) {
      const auto rank_it =
          std::find(by_popularity.begin(), by_popularity.end(), id);
      const double rank =
          static_cast<double>(rank_it - by_popularity.begin()) + 1.0;
      const double pop_score = candidates.size() == 1 ? 1.0 : 1.0 / rank;
      ml::Example ex;
      ex.features = CompareImpl(entities[e], label_tokens, id, pop_score);
      ex.target = (!labels[e].is_new && labels[e].instance == id) ? 1.0 : -1.0;
      examples.push_back(std::move(ex));
    }
  }
  aggregator_.Train(std::move(examples), options_.aggregation, rng, pool);

  // ---- 2. Threshold sweeps. ----------------------------------------------
  struct EntityScore {
    double best;
    kb::InstanceId best_instance;
    bool is_new;
    kb::InstanceId gold_instance;
  };
  std::vector<EntityScore> scored;
  for (size_t e = 0; e < entities.size(); ++e) {
    auto candidates = ScoreCandidates(entities[e]);
    EntityScore s;
    s.best = candidates.empty() ? -1.0 : candidates.front().score;
    s.best_instance =
        candidates.empty() ? kb::kInvalidInstance : candidates.front().instance;
    s.is_new = labels[e].is_new;
    s.gold_instance = labels[e].instance;
    scored.push_back(s);
  }

  // new_threshold: maximize new-vs-existing classification accuracy.
  std::vector<double> trials = {-0.99};
  for (const auto& s : scored) trials.push_back(s.best + 1e-9);
  double best_acc = -1.0;
  for (double t : trials) {
    int correct = 0;
    for (const auto& s : scored) {
      const bool predicted_new = s.best < t;
      if (predicted_new == s.is_new) ++correct;
    }
    const double acc = static_cast<double>(correct) /
                       static_cast<double>(std::max<size_t>(1, scored.size()));
    if (acc > best_acc) {
      best_acc = acc;
      new_threshold_ = t;
    }
  }

  // match_threshold >= new_threshold: maximize existing-match F1.
  double best_f1 = -1.0;
  match_threshold_ = new_threshold_;
  for (double t : trials) {
    if (t < new_threshold_) continue;
    int tp = 0, fp = 0, fn = 0;
    for (const auto& s : scored) {
      const bool matched = s.best >= t;
      if (matched) {
        if (!s.is_new && s.best_instance == s.gold_instance) ++tp;
        else ++fp;
      } else if (!s.is_new) {
        ++fn;
      }
    }
    const double p = tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
    const double r = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
    const double f1 = p + r == 0.0 ? 0.0 : 2 * p * r / (p + r);
    if (f1 > best_f1) {
      best_f1 = f1;
      match_threshold_ = t;
    }
  }
}

std::vector<Detection> NewDetector::Detect(
    const std::vector<fusion::CreatedEntity>& entities) const {
  util::trace::ScopedSpan span("newdetect.detect");
  span.AddArg("entities", entities.size());
  size_t new_entities = 0, matched = 0;
  // Feature names of the enabled metrics, in emission order (provenance).
  std::vector<std::string> feature_names;
  if (prov::IsEnabled()) {
    for (int m = 0; m < kNumEntityMetrics; ++m) {
      if (options_.enabled_metrics[m]) {
        feature_names.push_back(EntityMetricName(static_cast<EntityMetric>(m)));
      }
    }
  }
  // NEW verdicts per class, feeding the ltee.prov.new_ratio_* gauges.
  std::unordered_map<kb::ClassId, std::pair<size_t, size_t>> class_counts;
  std::vector<Detection> out;
  out.reserve(entities.size());
  for (const auto& entity : entities) {
    auto candidates = ScoreCandidates(entity);
    Detection detection;
    if (candidates.empty()) {
      detection.is_new = true;
      detection.best_score = -1.0;
    } else {
      detection.best_score = candidates.front().score;
      if (candidates.front().score < new_threshold_) {
        detection.is_new = true;
      } else {
        detection.is_new = false;
        if (candidates.front().score >= match_threshold_) {
          detection.instance = candidates.front().instance;
        }
      }
    }
    if (detection.is_new) {
      ++new_entities;
    } else if (detection.instance != kb::kInvalidInstance) {
      ++matched;
    }
    if (entity.cls != kb::kInvalidClass) {
      auto& [news, total] = class_counts[entity.cls];
      if (detection.is_new) ++news;
      ++total;
    }
    if (prov::IsEnabled()) {
      prov::NewDetectDecision decision;
      decision.cls = entity.cls;
      decision.cluster_id = entity.cluster_id;
      if (!entity.labels.empty()) decision.label = entity.labels.front();
      decision.is_new = detection.is_new;
      decision.best_score = detection.best_score;
      decision.new_threshold = new_threshold_;
      decision.match_threshold = match_threshold_;
      if (detection.instance != kb::kInvalidInstance) {
        const auto& labels = kb_->instance(detection.instance).labels;
        if (!labels.empty()) decision.matched_instance = labels.front();
      }
      const size_t top = std::min<size_t>(3, candidates.size());
      for (size_t k = 0; k < top; ++k) {
        const auto& labels = kb_->instance(candidates[k].instance).labels;
        decision.candidates.emplace_back(labels.empty() ? "" : labels.front(),
                                         candidates[k].score);
      }
      if (!candidates.empty()) {
        const auto& sims = candidates.front().features.sims;
        for (size_t k = 0; k < sims.size() && k < feature_names.size(); ++k) {
          decision.features.emplace_back(feature_names[k], sims[k]);
        }
      }
      prov::Record(std::move(decision));
    }
    out.push_back(detection);
  }
  // Per-class NEW/EXISTING ratio gauges (always on; one writer per class
  // because the pipeline runs each class's Detect on a single thread).
  for (const auto& [cls, counts] : class_counts) {
    const auto& [news, total] = counts;
    if (total == 0) continue;
    util::Metrics()
        .GetGauge("ltee.prov.new_ratio_" +
                  util::SanitizeMetricSegment(kb_->cls(cls).name))
        .Set(static_cast<double>(news) / static_cast<double>(total));
  }
  span.AddArg("new", new_entities);
  span.AddArg("matched", matched);
  util::Metrics().GetCounter("ltee.newdetect.entities_scored")
      .Increment(entities.size());
  util::Metrics().GetCounter("ltee.newdetect.new_entities")
      .Increment(new_entities);
  util::Metrics().GetCounter("ltee.newdetect.matched_entities")
      .Increment(matched);
  return out;
}

}  // namespace ltee::newdetect
