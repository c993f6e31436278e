#include "matching/schema_matcher.h"

#include <algorithm>
#include <map>

#include "prov/ledger.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/trace.h"

namespace ltee::matching {

SchemaMatcher::SchemaMatcher(const kb::KnowledgeBase& kb,
                             const index::LabelIndex& kb_index,
                             SchemaMatcherOptions options)
    : kb_(&kb),
      kb_index_(&kb_index),
      options_(options),
      value_profiles_(BuildPropertyValueProfiles(kb)) {}

SchemaMatcher::Prepared SchemaMatcher::PrepareInputs(
    const webtable::PreparedCorpus& prepared,
    const MatcherFeedback& feedback) const {
  Prepared prep;
  prep.inputs.kb = kb_;
  prep.inputs.prepared = &prepared;
  prep.inputs.value_profiles = &value_profiles_;
  prep.inputs.row_instances = feedback.row_instances;
  prep.inputs.row_clusters = feedback.row_clusters;
  prep.inputs.preliminary = feedback.preliminary;
  if (feedback.preliminary != nullptr) {
    prep.wt_label = WtLabelStats::Build(prepared, *feedback.preliminary);
    prep.inputs.wt_label = &prep.wt_label;
    if (feedback.row_clusters != nullptr) {
      prep.wt_duplicate = WtDuplicateIndex::Build(
          prepared, *feedback.preliminary, *feedback.row_clusters, *kb_);
      prep.inputs.wt_duplicate = &prep.wt_duplicate;
    }
  }
  return prep;
}

double SchemaMatcher::Aggregate(
    kb::ClassId cls, const std::array<double, kNumMatchers>& scores) const {
  std::array<double, kNumMatchers> weights;
  auto it = weights_.find(cls);
  if (it != weights_.end()) {
    weights = it->second;
  } else {
    weights.fill(1.0);
  }
  double num = 0.0, den = 0.0;
  for (int i = 0; i < kNumMatchers; ++i) {
    if (scores[i] < 0.0) continue;
    num += weights[i] * scores[i];
    den += weights[i];
  }
  return den == 0.0 ? 0.0 : num / den;
}

double SchemaMatcher::ThresholdOf(kb::PropertyId property) const {
  auto it = thresholds_.find(property);
  return it == thresholds_.end() ? options_.default_threshold : it->second;
}

TableMapping SchemaMatcher::MatchTableImpl(const webtable::PreparedTable& table,
                                           const MatcherInputs& inputs) const {
  TableMapping mapping;
  mapping.table = table.id;
  const auto& column_types = table.column_types;
  mapping.columns.resize(table.num_columns);
  for (size_t c = 0; c < table.num_columns; ++c) {
    mapping.columns[c].detected = column_types[c];
  }
  mapping.label_column = table.label_column;
  if (mapping.label_column < 0) {
    mapping.row_instance.assign(table.num_rows, kb::kInvalidInstance);
    return mapping;
  }

  TableToClassResult ttc = MatchTableToClass(
      table, mapping.label_column, *kb_, *kb_index_, options_.table_to_class);
  mapping.cls = ttc.cls;
  mapping.class_score = ttc.score;
  mapping.row_instance = std::move(ttc.row_instance);
  if (mapping.cls == kb::kInvalidClass) return mapping;

  const auto& class_properties = kb_->cls(mapping.cls).properties;
  for (size_t c = 0; c < table.num_columns; ++c) {
    if (static_cast<int>(c) == mapping.label_column) continue;
    kb::PropertyId best_property = kb::kInvalidProperty;
    double best_score = 0.0;
    std::array<double, kNumMatchers> best_matcher_scores;
    best_matcher_scores.fill(-1.0);
    for (kb::PropertyId pid : class_properties) {
      if (!types::DetectedTypeAdmitsProperty(column_types[c],
                                             kb_->property(pid).type)) {
        continue;
      }
      const auto scores =
          RunAllMatchers(inputs, table, static_cast<int>(c), pid);
      const double agg = Aggregate(mapping.cls, scores);
      if (agg > best_score) {
        best_score = agg;
        best_property = pid;
        best_matcher_scores = scores;
      }
    }
    // Match only when the winner also clears its per-property threshold.
    const bool accepted = best_property != kb::kInvalidProperty &&
                          best_score >= ThresholdOf(best_property);
    if (accepted) {
      mapping.columns[c].property = best_property;
      mapping.columns[c].score = best_score;
    }
    if (best_property != kb::kInvalidProperty && prov::IsEnabled()) {
      prov::SchemaMapDecision decision;
      decision.cls = mapping.cls;
      decision.table = table.id;
      decision.column = static_cast<int>(c);
      decision.property = best_property;
      decision.property_name = kb_->property(best_property).name;
      decision.score = best_score;
      decision.threshold = ThresholdOf(best_property);
      decision.accepted = accepted;
      for (int m = 0; m < kNumMatchers; ++m) {
        if (best_matcher_scores[m] < 0.0) continue;  // not applicable
        decision.matcher_scores.emplace_back(
            MatcherName(static_cast<MatcherId>(m)), best_matcher_scores[m]);
      }
      prov::Record(std::move(decision));
    }
  }
  return mapping;
}

SchemaMapping SchemaMatcher::Match(const webtable::PreparedCorpus& prepared,
                                   const MatcherFeedback& feedback) const {
  const bool refined = feedback.preliminary != nullptr;
  util::trace::ScopedSpan span("matching.schema_match");
  span.AddArg("tables", prepared.size());
  span.AddArg("refined", refined ? "true" : "false");
  Prepared prep = PrepareInputs(prepared, feedback);
  SchemaMapping mapping;
  mapping.tables.resize(prepared.size());
  size_t tables_mapped = 0, columns_matched = 0;
  for (size_t t = 0; t < prepared.size(); ++t) {
    const auto& table = prepared.table(static_cast<webtable::TableId>(t));
    TableMapping& out = mapping.tables[table.id];
    out = MatchTableImpl(table, prep.inputs);
    if (out.cls != kb::kInvalidClass) ++tables_mapped;
    for (const ColumnMatch& match : out.columns) {
      if (match.property != kb::kInvalidProperty) ++columns_matched;
    }
  }
  span.AddArg("tables_mapped", tables_mapped);
  span.AddArg("columns_matched", columns_matched);
  util::Metrics()
      .GetCounter("ltee.matching.tables_mapped")
      .Increment(tables_mapped);
  util::Metrics()
      .GetCounter("ltee.matching.columns_matched")
      .Increment(columns_matched);
  return mapping;
}

TableMapping SchemaMatcher::MatchTable(const webtable::PreparedCorpus& prepared,
                                       webtable::TableId table,
                                       const MatcherFeedback& feedback) const {
  Prepared prep = PrepareInputs(prepared, feedback);
  return MatchTableImpl(prepared.table(table), prep.inputs);
}

namespace {

/// One candidate decision cached for learning: a column, a candidate
/// property, the matcher scores, and whether the annotation says this is
/// the correct property.
struct LearnCandidate {
  int column_key;  // dense id of (table, column)
  kb::PropertyId property;
  std::array<double, kNumMatchers> scores;
  bool correct;
};

/// Computes attribute-matching F1 for fixed weights and a single global
/// threshold over the cached candidates of one class.
double EvaluateWeights(const std::vector<LearnCandidate>& candidates,
                       const std::map<int, kb::PropertyId>& annotated,
                       const std::array<double, kNumMatchers>& weights,
                       double threshold,
                       std::map<int, std::pair<kb::PropertyId, double>>*
                           decisions_out = nullptr) {
  // Per column: argmax aggregated score.
  std::map<int, std::pair<kb::PropertyId, double>> best;
  for (const auto& cand : candidates) {
    double num = 0.0, den = 0.0;
    for (int i = 0; i < kNumMatchers; ++i) {
      if (cand.scores[i] < 0.0) continue;
      num += weights[i] * cand.scores[i];
      den += weights[i];
    }
    const double agg = den == 0.0 ? 0.0 : num / den;
    auto [it, inserted] = best.emplace(
        cand.column_key, std::make_pair(cand.property, agg));
    if (!inserted && agg > it->second.second) {
      it->second = {cand.property, agg};
    }
  }
  if (decisions_out != nullptr) *decisions_out = best;

  int tp = 0, fp = 0, fn = 0;
  for (const auto& [col, decision] : best) {
    const auto ann = annotated.find(col);
    const bool predicted = decision.second >= threshold;
    if (predicted) {
      if (ann != annotated.end() && ann->second == decision.first) {
        ++tp;
      } else {
        ++fp;
      }
    }
  }
  for (const auto& [col, prop] : annotated) {
    auto it = best.find(col);
    if (it == best.end() || it->second.second < threshold ||
        it->second.first != prop) {
      ++fn;
    }
  }
  const double p = tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
  const double r = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
  return util::F1(p, r);
}

}  // namespace

void SchemaMatcher::Learn(const webtable::PreparedCorpus& prepared,
                          const std::vector<webtable::TableId>& learning_tables,
                          const std::vector<AttributeAnnotation>& annotations,
                          const MatcherFeedback& feedback, util::Rng& rng,
                          util::ThreadPool* pool) {
  Prepared prep = PrepareInputs(prepared, feedback);

  std::map<std::pair<webtable::TableId, int>, kb::PropertyId> annotation_map;
  for (const auto& a : annotations) {
    annotation_map[{a.table, a.column}] = a.property;
  }

  // Cache candidates per class.
  std::unordered_map<kb::ClassId, std::vector<LearnCandidate>> per_class;
  std::unordered_map<kb::ClassId, std::map<int, kb::PropertyId>>
      per_class_annotated;
  int next_column_key = 0;

  for (webtable::TableId tid : learning_tables) {
    const webtable::PreparedTable& table = prepared.table(tid);
    const auto& column_types = table.column_types;
    const int label_column = table.label_column;
    if (label_column < 0) continue;
    TableToClassResult ttc = MatchTableToClass(table, label_column, *kb_,
                                               *kb_index_,
                                               options_.table_to_class);
    if (ttc.cls == kb::kInvalidClass) continue;

    auto& candidates = per_class[ttc.cls];
    auto& annotated = per_class_annotated[ttc.cls];
    for (size_t c = 0; c < table.num_columns; ++c) {
      if (static_cast<int>(c) == label_column) continue;
      const int column_key = next_column_key++;
      auto ann = annotation_map.find({tid, static_cast<int>(c)});
      if (ann != annotation_map.end()) annotated[column_key] = ann->second;
      for (kb::PropertyId pid : kb_->cls(ttc.cls).properties) {
        if (!types::DetectedTypeAdmitsProperty(column_types[c],
                                               kb_->property(pid).type)) {
          continue;
        }
        LearnCandidate cand;
        cand.column_key = column_key;
        cand.property = pid;
        cand.scores = RunAllMatchers(prep.inputs, table,
                                     static_cast<int>(c), pid);
        cand.correct = ann != annotation_map.end() && ann->second == pid;
        candidates.push_back(std::move(cand));
      }
    }
  }

  // Learn weights per class via GA (genome: 5 weights + global threshold),
  // then per-property thresholds by sweep under the learned weights.
  for (auto& [cls, candidates] : per_class) {
    const auto& annotated = per_class_annotated[cls];
    if (annotated.empty()) continue;
    auto fitness = [&](const std::vector<double>& genome) {
      std::array<double, kNumMatchers> w;
      for (int i = 0; i < kNumMatchers; ++i) w[i] = genome[i];
      return EvaluateWeights(candidates, annotated, w, genome[kNumMatchers]);
    };
    auto genome = ml::GeneticMaximize(kNumMatchers + 1, fitness, rng,
                                      options_.genetic, pool);
    std::array<double, kNumMatchers> weights;
    for (int i = 0; i < kNumMatchers; ++i) weights[i] = genome[i];
    weights_[cls] = weights;
    const double global_threshold = genome[kNumMatchers];

    // Decisions under the final weights (threshold-free argmax).
    std::map<int, std::pair<kb::PropertyId, double>> decisions;
    EvaluateWeights(candidates, annotated, weights, global_threshold,
                    &decisions);

    // Per-property threshold sweep.
    for (kb::PropertyId pid : kb_->cls(cls).properties) {
      std::vector<double> scores;
      for (const auto& [col, decision] : decisions) {
        if (decision.first == pid) scores.push_back(decision.second);
      }
      if (scores.empty()) {
        thresholds_[pid] = global_threshold;
        continue;
      }
      std::sort(scores.begin(), scores.end());
      double best_f1 = -1.0, best_threshold = global_threshold;
      std::vector<double> trials = scores;
      trials.push_back(global_threshold);
      for (double t : trials) {
        int tp = 0, fp = 0, fn = 0;
        for (const auto& [col, decision] : decisions) {
          auto ann = annotated.find(col);
          const bool is_ann = ann != annotated.end() && ann->second == pid;
          const bool predicted =
              decision.first == pid && decision.second >= t;
          if (predicted && is_ann) ++tp;
          else if (predicted && !is_ann) ++fp;
          else if (!predicted && is_ann) ++fn;
        }
        const double p =
            tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
        const double r =
            tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
        const double f1 = util::F1(p, r);
        if (f1 > best_f1) {
          best_f1 = f1;
          best_threshold = t;
        }
      }
      thresholds_[pid] = best_threshold;
    }
  }
}

std::array<double, kNumMatchers> SchemaMatcher::AverageWeights() const {
  std::array<double, kNumMatchers> out;
  out.fill(0.0);
  if (weights_.empty()) return out;
  for (const auto& [cls, weights] : weights_) {
    double sum = 0.0;
    for (double w : weights) sum += w;
    if (sum == 0.0) continue;
    for (int i = 0; i < kNumMatchers; ++i) out[i] += weights[i] / sum;
  }
  for (auto& w : out) w /= static_cast<double>(weights_.size());
  return out;
}

}  // namespace ltee::matching
