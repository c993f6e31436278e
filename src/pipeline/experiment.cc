#include "pipeline/experiment.h"

#include <algorithm>
#include <set>

#include "ml/cross_validation.h"
#include "pipeline/training.h"
#include "util/logging.h"
#include "util/stats.h"

namespace ltee::pipeline {

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

struct GoldExperiment::ClassFoldState {
  std::vector<int> learning_clusters;
  std::vector<int> test_clusters;
  eval::GoldStandard test_gold;
  /// System clustering of the end-to-end run's test rows (TestEntities).
  std::unique_ptr<rowcluster::ClassRowSet> test_rows;
  cluster::ClusteringResult test_clustering;
};

struct GoldExperiment::FoldState {
  bool built = false;
  std::unique_ptr<LteePipeline> pipeline;
  /// Gold mapping and per-class gold row sets built by the trainer.
  GoldTraining gold;
  std::vector<ClassFoldState> classes;
  std::vector<webtable::TableId> test_tables;
  std::vector<matching::AttributeAnnotation> annotations;
  std::unique_ptr<PipelineRunResult> run;
  util::Rng rng{0};
};

GoldExperiment::GoldExperiment(const kb::KnowledgeBase& kb,
                               const webtable::TableCorpus& gs_corpus,
                               std::vector<eval::GoldStandard> gold,
                               PipelineOptions options, int num_folds,
                               uint64_t seed)
    : kb_(&kb),
      gs_corpus_(&gs_corpus),
      gold_(std::move(gold)),
      options_(std::move(options)),
      num_folds_(num_folds),
      seed_(seed) {
  // The experiment needs at least three iterations for Table 6.
  options_.iterations = std::max(options_.iterations, 3);

  util::Rng rng(seed_);
  for (auto& gs : gold_) {
    gs.BuildLookups();
    std::vector<int64_t> groups;
    std::vector<int> strata;
    for (const auto& cluster : gs.clusters) {
      groups.push_back(cluster.homonym_group);
      strata.push_back(cluster.is_new ? 1 : 0);
    }
    fold_of_cluster_.push_back(ml::AssignFolds(
        gs.clusters.size(), groups, strata, num_folds_, rng));
  }
  fold_states_.resize(num_folds_);
}

GoldExperiment::~GoldExperiment() = default;

GoldExperiment::FoldState& GoldExperiment::Fold(int fold) {
  if (fold_states_[fold] == nullptr) {
    fold_states_[fold] = std::make_unique<FoldState>();
  }
  FoldState& state = *fold_states_[fold];
  if (state.built) return state;
  state.built = true;
  state.rng = util::Rng(seed_ * 7919 + fold + 1);

  // ---- Cluster folds and the majority-fold table split. -----------------
  GoldSplit split;
  for (size_t ci = 0; ci < gold_.size(); ++ci) {
    const eval::GoldStandard& gs = gold_[ci];
    ClassFoldState cf;
    for (size_t g = 0; g < gs.clusters.size(); ++g) {
      (fold_of_cluster_[ci][g] == fold ? cf.test_clusters
                                       : cf.learning_clusters)
          .push_back(static_cast<int>(g));
    }
    cf.test_gold = eval::FilterClusters(gs, cf.test_clusters);
    split.learning_clusters.push_back(cf.learning_clusters);
    state.classes.push_back(std::move(cf));

    for (webtable::TableId tid : gs.tables) {
      // Majority fold over the table's annotated rows.
      std::vector<int> fold_count(num_folds_, 0);
      const webtable::WebTable& table = gs_corpus_->table(tid);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const int g = gs.ClusterOfRow({tid, static_cast<int32_t>(r)});
        if (g >= 0) fold_count[fold_of_cluster_[ci][g]] += 1;
      }
      const int majority = static_cast<int>(
          std::max_element(fold_count.begin(), fold_count.end()) -
          fold_count.begin());
      (majority == fold ? state.test_tables : split.learning_tables)
          .push_back(tid);
    }
    for (const auto& attr : gs.attributes) {
      state.annotations.push_back({attr.table, attr.column, attr.property});
    }
  }

  state.pipeline = std::make_unique<LteePipeline>(*kb_, options_);
  state.gold = TrainPipelineOnGold(state.pipeline.get(), *gs_corpus_, gold_,
                                   state.rng, split);
  LTEE_LOG(kDebug) << "fold " << fold << " trained";
  return state;
}

const PipelineRunResult& GoldExperiment::EndToEndRun(int fold) {
  FoldState& state = Fold(fold);
  if (state.run == nullptr) {
    std::vector<kb::ClassId> classes;
    for (const auto& gs : gold_) classes.push_back(gs.cls);
    state.run = std::make_unique<PipelineRunResult>(
        state.pipeline->Run(*gs_corpus_, classes));
  }
  return *state.run;
}

GoldEntities GoldExperiment::TestEntities(
    int fold, int class_index, bool gold_clustering,
    const fusion::EntityCreator& creator) {
  FoldState& state = Fold(fold);
  const PipelineRunResult& run = EndToEndRun(fold);
  ClassFoldState& cf = state.classes[class_index];
  const eval::GoldStandard& gs = gold_[class_index];
  const rowcluster::ClassRowSet& rows = run.classes[class_index].rows;
  const matching::SchemaMapping& mapping = run.mappings.back();
  const webtable::PreparedCorpus& prepared =
      state.pipeline->Prepared(*gs_corpus_);
  if (gold_clustering) {
    return GoldClusterEntities(rows, gs, cf.test_clusters, mapping, creator,
                               prepared);
  }
  if (cf.test_rows == nullptr) {
    // System clustering over test rows (learning rows excluded).
    std::vector<bool> keep(rows.rows.size(), false);
    for (size_t i = 0; i < keep.size(); ++i) {
      const int g = gs.ClusterOfRow(rows.rows[i].ref);
      keep[i] = g < 0 || fold_of_cluster_[class_index][g] == fold;
    }
    cf.test_rows = std::make_unique<rowcluster::ClassRowSet>(
        rowcluster::FilterRows(rows, keep));
    cf.test_clustering =
        state.pipeline->clusterer_for(gs.cls).Cluster(*cf.test_rows);
  }
  GoldEntities out;
  out.entities = creator.Create(*cf.test_rows, cf.test_clustering.cluster_of,
                                mapping, prepared);
  return out;
}

// ---------------------------------------------------------------------------
// Table 6: schema matching by iteration
// ---------------------------------------------------------------------------

std::vector<GoldExperiment::PrfMetrics>
GoldExperiment::SchemaMatchingByIteration(int max_iterations) {
  std::vector<PrfMetrics> totals(max_iterations);
  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    const PipelineRunResult& run = EndToEndRun(fold);

    std::map<std::pair<webtable::TableId, int>, kb::PropertyId> annotated;
    std::set<webtable::TableId> test_set(state.test_tables.begin(),
                                         state.test_tables.end());
    for (const auto& a : state.annotations) {
      if (test_set.count(a.table)) annotated[{a.table, a.column}] = a.property;
    }

    for (int it = 0; it < max_iterations; ++it) {
      const matching::SchemaMapping& mapping =
          run.mappings[std::min<size_t>(it, run.mappings.size() - 1)];
      int tp = 0, fp = 0, fn = 0;
      for (webtable::TableId tid : state.test_tables) {
        const matching::TableMapping& tm = mapping.of(tid);
        for (size_t c = 0; c < tm.columns.size(); ++c) {
          const kb::PropertyId predicted = tm.columns[c].property;
          if (predicted == kb::kInvalidProperty) continue;
          auto it2 = annotated.find({tid, static_cast<int>(c)});
          if (it2 != annotated.end() && it2->second == predicted) {
            ++tp;
          } else {
            ++fp;
          }
        }
      }
      for (const auto& [key, property] : annotated) {
        const matching::TableMapping& tm = mapping.of(key.first);
        if (key.second >= static_cast<int>(tm.columns.size()) ||
            tm.columns[key.second].property != property) {
          ++fn;
        }
      }
      const double p =
          tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
      const double r =
          tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
      totals[it].precision += p;
      totals[it].recall += r;
      totals[it].f1 += util::F1(p, r);
    }
  }
  for (auto& m : totals) {
    m.precision /= num_folds_;
    m.recall /= num_folds_;
    m.f1 /= num_folds_;
  }
  return totals;
}

std::vector<double> GoldExperiment::AverageSchemaWeights() {
  std::vector<double> out(matching::kNumMatchers, 0.0);
  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    auto weights = state.pipeline->schema_matcher_refined().AverageWeights();
    for (int i = 0; i < matching::kNumMatchers; ++i) out[i] += weights[i];
  }
  for (auto& w : out) w /= num_folds_;
  return out;
}

// ---------------------------------------------------------------------------
// Table 7: row clustering ablation
// ---------------------------------------------------------------------------

GoldExperiment::ClusteringMetrics GoldExperiment::RowClustering(
    const std::vector<bool>& metrics, ml::AggregationKind aggregation,
    bool blocking) {
  ClusteringMetrics out;
  int enabled = 0;
  for (bool b : metrics) enabled += b ? 1 : 0;
  out.importances.assign(enabled, 0.0);
  int runs = 0;

  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    for (size_t ci = 0; ci < state.classes.size(); ++ci) {
      const ClassFoldState& cf = state.classes[ci];
      const rowcluster::ClassRowSet& gold_rows = state.gold.gold_rows[ci];
      rowcluster::RowClustererOptions opts = options_.clustering;
      opts.enabled_metrics = metrics;
      opts.aggregation = aggregation;
      opts.enable_blocking = blocking;
      rowcluster::RowClusterer clusterer(opts);
      clusterer.Train(gold_rows, state.gold.learning_assignment[ci],
                      state.rng, &state.pipeline->pool());

      std::vector<bool> keep(gold_rows.rows.size(), false);
      for (size_t i = 0; i < keep.size(); ++i) {
        const int g = gold_[ci].ClusterOfRow(gold_rows.rows[i].ref);
        keep[i] = g >= 0 && fold_of_cluster_[ci][g] == fold;
      }
      auto test_rows = rowcluster::FilterRows(gold_rows, keep);
      auto result = clusterer.Cluster(test_rows);

      std::vector<webtable::RowRef> refs;
      refs.reserve(test_rows.rows.size());
      for (const auto& row : test_rows.rows) refs.push_back(row.ref);
      auto grouped = eval::GroupRows(refs, result.cluster_of);
      auto metrics_result = eval::EvaluateClustering(grouped, cf.test_gold);

      out.penalized_precision += metrics_result.penalized_precision;
      out.average_recall += metrics_result.average_recall;
      out.f1 += metrics_result.f1;
      auto importances = clusterer.MetricImportances();
      for (size_t k = 0; k < importances.size() && k < out.importances.size();
           ++k) {
        out.importances[k] += importances[k];
      }
      ++runs;
    }
  }
  if (runs > 0) {
    out.penalized_precision /= runs;
    out.average_recall /= runs;
    out.f1 /= runs;
    for (auto& imp : out.importances) imp /= runs;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Table 8: new detection ablation
// ---------------------------------------------------------------------------

GoldExperiment::DetectionMetrics GoldExperiment::NewDetection(
    const std::vector<bool>& metrics) {
  DetectionMetrics out;
  int enabled = 0;
  for (bool b : metrics) enabled += b ? 1 : 0;
  out.importances.assign(enabled, 0.0);
  int runs = 0;

  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    for (size_t ci = 0; ci < state.classes.size(); ++ci) {
      const ClassFoldState& cf = state.classes[ci];
      const eval::GoldStandard& gs = gold_[ci];

      newdetect::NewDetectorOptions opts = options_.detection;
      opts.enabled_metrics = metrics;
      newdetect::NewDetector detector(*kb_, state.pipeline->kb_index(), opts);

      auto creator = state.pipeline->MakeEntityCreator();
      const webtable::PreparedCorpus& prepared =
          state.pipeline->Prepared(*gs_corpus_);
      auto train = GoldClusterEntities(state.gold.gold_rows[ci], gs,
                                       cf.learning_clusters,
                                       state.gold.gold_mapping, creator,
                                       prepared);
      std::vector<newdetect::DetectionLabel> labels;
      for (int g : train.clusters) {
        labels.push_back({gs.clusters[g].is_new, gs.clusters[g].kb_instance});
      }
      detector.Train(train.entities, labels, state.rng,
                     &state.pipeline->pool());

      auto test = GoldClusterEntities(state.gold.gold_rows[ci], gs,
                                      cf.test_clusters,
                                      state.gold.gold_mapping, creator,
                                      prepared);
      std::vector<const eval::GsCluster*> test_clusters;
      for (int g : test.clusters) test_clusters.push_back(&gs.clusters[g]);
      auto detections = detector.Detect(test.entities);
      auto result = eval::EvaluateNewDetection(detections, test_clusters);

      out.accuracy += result.accuracy;
      out.f1_existing += result.f1_existing;
      out.f1_new += result.f1_new;
      auto importances = detector.MetricImportances();
      for (size_t k = 0; k < importances.size() && k < out.importances.size();
           ++k) {
        out.importances[k] += importances[k];
      }
      ++runs;
    }
  }
  if (runs > 0) {
    out.accuracy /= runs;
    out.f1_existing /= runs;
    out.f1_new /= runs;
    for (auto& imp : out.importances) imp /= runs;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tables 9 & 10 and Section 6
// ---------------------------------------------------------------------------

namespace {

/// Detections implied by the gold standard, parallel to entities created
/// 1:1 from the given clusters.
std::vector<newdetect::Detection> GoldDetections(
    const eval::GoldStandard& gs, const std::vector<int>& clusters) {
  std::vector<newdetect::Detection> out;
  for (int g : clusters) {
    newdetect::Detection d;
    d.is_new = gs.clusters[g].is_new;
    d.instance = gs.clusters[g].kb_instance;
    d.best_score = d.is_new ? -1.0 : 1.0;
    out.push_back(d);
  }
  return out;
}

}  // namespace

eval::InstancesFoundResult GoldExperiment::NewInstancesFound(
    int class_index, bool gold_clustering) {
  eval::InstancesFoundResult total;
  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    auto test = TestEntities(fold, class_index, gold_clustering,
                             state.pipeline->MakeEntityCreator());
    auto detections = state.pipeline->detector_for(gold_[class_index].cls)
                          .Detect(test.entities);
    auto result = eval::EvaluateNewInstancesFound(
        test.entities, detections, state.classes[class_index].test_gold);
    total.precision += result.precision;
    total.recall += result.recall;
    total.f1 += result.f1;
  }
  total.precision /= num_folds_;
  total.recall /= num_folds_;
  total.f1 /= num_folds_;
  return total;
}

eval::FactsFoundResult GoldExperiment::FactsFound(
    int class_index, bool gold_clustering, bool gold_detection,
    fusion::ScoringApproach scoring) {
  eval::FactsFoundResult total;
  const eval::GoldStandard& gs = gold_[class_index];
  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    auto test = TestEntities(fold, class_index, gold_clustering,
                             state.pipeline->MakeEntityCreator(scoring));
    auto detections =
        gold_clustering && gold_detection
            ? GoldDetections(gs, test.clusters)
            : state.pipeline->detector_for(gs.cls).Detect(test.entities);
    auto result = eval::EvaluateFactsFound(
        test.entities, detections, state.classes[class_index].test_gold);
    total.precision += result.precision;
    total.recall += result.recall;
    total.f1 += result.f1;
    total.returned_facts += result.returned_facts;
    total.correct_facts += result.correct_facts;
  }
  total.precision /= num_folds_;
  total.recall /= num_folds_;
  total.f1 /= num_folds_;
  return total;
}

eval::RankedEvalResult GoldExperiment::RankedNewEntities(size_t cutoff) {
  // Pool new-classified entities of the full system runs over classes and
  // folds; rank by distance to the closest existing instance (entities
  // farthest from any KB instance first).
  std::vector<std::pair<double, bool>> pool;  // (best_score, correct)
  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    for (size_t ci = 0; ci < state.classes.size(); ++ci) {
      const eval::GoldStandard& test_gold = state.classes[ci].test_gold;
      auto test = TestEntities(fold, static_cast<int>(ci),
                               /*gold_clustering=*/false,
                               state.pipeline->MakeEntityCreator());
      auto detections =
          state.pipeline->detector_for(gold_[ci].cls).Detect(test.entities);
      const auto mapping_to_gold =
          eval::MapEntitiesToGold(test.entities, test_gold);
      for (size_t e = 0; e < test.entities.size(); ++e) {
        if (!detections[e].is_new) continue;
        const int g = mapping_to_gold[e];
        const bool correct = g >= 0 && test_gold.clusters[g].is_new;
        pool.emplace_back(detections[e].best_score, correct);
      }
    }
  }
  std::sort(pool.begin(), pool.end());  // lowest similarity first
  std::vector<bool> correct;
  correct.reserve(pool.size());
  for (const auto& [score, ok] : pool) correct.push_back(ok);
  return eval::EvaluateRanked(correct, cutoff);
}

GoldExperiment::InstanceMatchMetrics
GoldExperiment::ExistingInstanceMatching() {
  InstanceMatchMetrics out;
  int runs = 0;
  for (int fold = 0; fold < num_folds_; ++fold) {
    FoldState& state = Fold(fold);
    for (size_t ci = 0; ci < state.classes.size(); ++ci) {
      const eval::GoldStandard& gs = gold_[ci];
      auto test = GoldClusterEntities(
          state.gold.gold_rows[ci], gs, state.classes[ci].test_clusters,
          state.gold.gold_mapping, state.pipeline->MakeEntityCreator(),
          state.pipeline->Prepared(*gs_corpus_));
      auto detections =
          state.pipeline->detector_for(gs.cls).Detect(test.entities);

      int existing_total = 0, matched = 0, predicted = 0, correct = 0;
      for (size_t e = 0; e < detections.size(); ++e) {
        const eval::GsCluster& cluster = gs.clusters[test.clusters[e]];
        if (!cluster.is_new) ++existing_total;
        if (!detections[e].is_new &&
            detections[e].instance != kb::kInvalidInstance) {
          ++predicted;
          if (!cluster.is_new && detections[e].instance == cluster.kb_instance) {
            ++correct;
            ++matched;
          }
        }
      }
      const double p =
          predicted == 0 ? 0.0 : static_cast<double>(correct) / predicted;
      const double r = existing_total == 0
                           ? 0.0
                           : static_cast<double>(matched) / existing_total;
      out.f1 += util::F1(p, r);
      out.accuracy += existing_total == 0
                          ? 0.0
                          : static_cast<double>(correct) / existing_total;
      ++runs;
    }
  }
  if (runs > 0) {
    out.f1 /= runs;
    out.accuracy /= runs;
  }
  return out;
}

}  // namespace ltee::pipeline
