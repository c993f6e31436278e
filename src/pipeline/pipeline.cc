#include "pipeline/pipeline.h"

#include "obsv/memtrack.h"
#include "prov/ledger.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ltee::pipeline {

index::LabelIndex BuildKbLabelIndex(const kb::KnowledgeBase& kb,
                                    std::shared_ptr<util::TokenDictionary> dict) {
  index::LabelIndex index(std::move(dict));
  for (const auto& instance : kb.instances()) {
    for (const auto& label : instance.labels) {
      index.Add(static_cast<uint32_t>(instance.id), label);
    }
  }
  index.Build();
  return index;
}

LteePipeline::LteePipeline(const kb::KnowledgeBase& kb,
                           PipelineOptions options)
    : kb_(&kb),
      options_(std::move(options)),
      dict_(std::make_shared<util::TokenDictionary>()),
      kb_index_(BuildKbLabelIndex(kb, dict_)) {
  schema_first_ = std::make_unique<matching::SchemaMatcher>(
      *kb_, kb_index_, options_.schema);
  schema_refined_ = std::make_unique<matching::SchemaMatcher>(
      *kb_, kb_index_, options_.schema);
}

util::ThreadPool& LteePipeline::pool() const {
  std::unique_lock<std::mutex> lock(prepared_mu_);
  return PoolLocked();
}

util::ThreadPool& LteePipeline::PoolLocked() const {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(
        options_.num_threads > 0 ? static_cast<size_t>(options_.num_threads)
                                 : 0);
  }
  return *pool_;
}

const webtable::PreparedCorpus& LteePipeline::Prepared(
    const webtable::TableCorpus& corpus) const {
  std::unique_lock<std::mutex> lock(prepared_mu_);
  auto it = prepared_.find(&corpus);
  if (it != prepared_.end()) {
    // Delta ingestion appends tables to an already-prepared corpus; extend
    // the prepared view in place (token ids interned so far stay stable).
    if (it->second->size() < corpus.size()) it->second->Append(&PoolLocked());
    return *it->second;
  }
  auto built =
      std::make_unique<webtable::PreparedCorpus>(corpus, dict_, &PoolLocked());
  it = prepared_.emplace(&corpus, std::move(built)).first;
  return *it->second;
}

rowcluster::RowClusterer& LteePipeline::clusterer_for(kb::ClassId cls) {
  auto it = clusterers_.find(cls);
  if (it == clusterers_.end()) {
    it = clusterers_.emplace(cls, rowcluster::RowClusterer(options_.clustering))
             .first;
  }
  return it->second;
}

newdetect::NewDetector& LteePipeline::detector_for(kb::ClassId cls) {
  auto it = detectors_.find(cls);
  if (it == detectors_.end()) {
    it = detectors_
             .emplace(cls, newdetect::NewDetector(*kb_, kb_index_,
                                                  options_.detection))
             .first;
  }
  return it->second;
}

const rowcluster::RowClusterer& LteePipeline::clusterer_for(
    kb::ClassId cls) const {
  return clusterers_.at(cls);
}

const newdetect::NewDetector& LteePipeline::detector_for(
    kb::ClassId cls) const {
  return detectors_.at(cls);
}

ClassRunResult LteePipeline::RunClass(const webtable::TableCorpus& corpus,
                                      const matching::SchemaMapping& mapping,
                                      kb::ClassId cls) const {
  const webtable::PreparedCorpus& prepared = Prepared(corpus);
  util::trace::ScopedSpan span("pipeline.run_class");
  span.AddArg("cls", static_cast<long long>(cls));
  util::WallTimer class_timer;
  ClassRunResult result;
  result.cls = cls;

  util::WallTimer stage_timer;
  result.rows = rowcluster::BuildClassRowSet(prepared, mapping, cls, *kb_,
                                             kb_index_, options_.row_features);
  result.stage_seconds.push_back(
      {"build_rows", stage_timer.ElapsedSeconds()});

  stage_timer.Restart();
  const auto& clusterer = clusterers_.at(cls);
  auto clustering = clusterer.Cluster(result.rows);
  result.cluster_of_row = std::move(clustering.cluster_of);
  result.num_clusters = clustering.num_clusters;
  result.stage_seconds.push_back({"cluster", stage_timer.ElapsedSeconds()});

  stage_timer.Restart();
  result.entities = MakeEntityCreator().Create(result.rows,
                                               result.cluster_of_row, mapping,
                                               prepared);
  result.stage_seconds.push_back({"fuse", stage_timer.ElapsedSeconds()});

  stage_timer.Restart();
  result.detections = detectors_.at(cls).Detect(result.entities);
  result.stage_seconds.push_back({"detect", stage_timer.ElapsedSeconds()});

  result.total_seconds = class_timer.ElapsedSeconds();
  span.AddArg("rows", result.rows.rows.size());
  span.AddArg("clusters", static_cast<long long>(result.num_clusters));
  return result;
}

void LteePipeline::CollectFeedback(const std::vector<ClassRunResult>& classes,
                                   matching::RowInstanceMap* instances,
                                   matching::RowClusterMap* clusters) {
  std::vector<ClassFeedback> feedback;
  feedback.reserve(classes.size());
  for (const auto& result : classes) {
    feedback.push_back(ExtractClassFeedback(result));
  }
  MergeClassFeedback(feedback, instances, clusters);
}

ClassFeedback LteePipeline::ExtractClassFeedback(const ClassRunResult& result) {
  ClassFeedback feedback;
  feedback.cls = result.cls;
  feedback.num_clusters = result.num_clusters;
  for (size_t i = 0; i < result.rows.rows.size(); ++i) {
    if (result.cluster_of_row[i] >= 0) {
      feedback.row_clusters.emplace_back(result.rows.rows[i].ref,
                                         result.cluster_of_row[i]);
    }
  }
  for (size_t e = 0; e < result.entities.size(); ++e) {
    const auto& detection = result.detections[e];
    if (!detection.is_new && detection.instance != kb::kInvalidInstance) {
      for (const auto& ref : result.entities[e].rows) {
        feedback.row_instances.emplace_back(ref, detection.instance);
      }
    }
  }
  return feedback;
}

void LteePipeline::MergeClassFeedback(
    const std::vector<ClassFeedback>& classes,
    matching::RowInstanceMap* instances, matching::RowClusterMap* clusters) {
  int offset = 0;
  for (const ClassFeedback& feedback : classes) {
    for (const auto& [ref, cluster] : feedback.row_clusters) {
      (*clusters)[ref] = offset + cluster;
    }
    for (const auto& [ref, instance] : feedback.row_instances) {
      (*instances)[ref] = instance;
    }
    offset += feedback.num_clusters;
  }
}

PipelineRunResult LteePipeline::Run(
    const webtable::TableCorpus& corpus,
    const std::vector<kb::ClassId>& classes) const {
  StageContext ctx;
  ctx.corpus = &corpus;
  ctx.classes = classes;
  ctx.scope = ClassScope::All();
  return RunScoped(ctx);
}

PipelineRunResult LteePipeline::RunScoped(const StageContext& ctx) const {
  const std::vector<kb::ClassId>& classes = ctx.classes;
  bool delta = ctx.has_baseline();
  if (delta) {
    const size_t iterations = static_cast<size_t>(options_.iterations);
    bool shape_ok = ctx.baseline.mappings->size() == iterations &&
                    ctx.baseline.feedback->size() == iterations;
    for (size_t i = 0; shape_ok && i < iterations; ++i) {
      shape_ok = (*ctx.baseline.feedback)[i].size() == classes.size();
    }
    if (!shape_ok) {
      LTEE_LOG(kWarning) << "RunScoped: baseline shape does not match the "
                            "configured iterations/classes; running full "
                            "scope without reuse";
      delta = false;
    }
  }

  PipelineRunResult out;
  matching::RowInstanceMap instances;
  matching::RowClusterMap clusters;

  util::trace::ScopedSpan run_span("pipeline.run");
  run_span.AddArg("classes", classes.size());
  run_span.AddArg("iterations", static_cast<long long>(options_.iterations));
  run_span.AddArg("delta", delta ? "true" : "false");
  util::WallTimer run_timer;
  util::WallTimer stage_timer;

  // Heap growth per stage boundary: the delta of process-wide tracked
  // live bytes (obsv::memtrack) since the previous boundary. All zeros
  // when tracking is off. Signed wrap-around subtraction keeps a
  // freed-more-than-allocated stage negative.
  uint64_t live_bytes_mark = obsv::GetMemtrackTotals().live_bytes;
  auto stage_bytes_delta = [&live_bytes_mark]() {
    const uint64_t now = obsv::GetMemtrackTotals().live_bytes;
    const long long delta = static_cast<long long>(now - live_bytes_mark);
    live_bytes_mark = now;
    return delta;
  };

  // Progress gauges make a long run watchable through the status server:
  // `stage` counts completed stage boundaries of this run, `classes_done`
  // ticks inside each parallel sweep. Hoisted once; the updates are one
  // relaxed store each.
  util::Gauge& stage_gauge = util::Metrics().GetGauge("ltee.pipeline.stage");
  util::Gauge& iteration_gauge =
      util::Metrics().GetGauge("ltee.pipeline.iteration");
  util::Gauge& classes_done_gauge =
      util::Metrics().GetGauge("ltee.pipeline.classes_done");
  util::Gauge& classes_total_gauge =
      util::Metrics().GetGauge("ltee.pipeline.classes_total");
  classes_total_gauge.Set(static_cast<double>(classes.size()));
  double stage_ordinal = 0.0;
  stage_gauge.Set(stage_ordinal);
  iteration_gauge.Set(0.0);
  classes_done_gauge.Set(0.0);

  // Prepares new tables in place when the corpus grew since the last run.
  const webtable::PreparedCorpus& prepared = Prepared(*ctx.corpus);
  out.report.stages.push_back(
      {"prepare_corpus", stage_timer.ElapsedSeconds(), stage_bytes_delta()});
  stage_gauge.Set(++stage_ordinal);

  for (int iteration = 0; iteration < options_.iterations; ++iteration) {
    const std::string iter_suffix = ".iter" + std::to_string(iteration + 1);
    iteration_gauge.Set(static_cast<double>(iteration + 1));
    // Stamp every provenance event of this iteration; post-run stages
    // (dedup, slot filling, KB update) inherit the final iteration.
    prov::SetIteration(iteration + 1);
    matching::SchemaMapping mapping;
    stage_timer.Restart();
    {
      util::trace::ScopedSpan match_span("pipeline.schema_match");
      match_span.AddArg("iteration", static_cast<long long>(iteration + 1));
      if (iteration == 0) {
        mapping = schema_first_->Match(prepared);
      } else {
        matching::MatcherFeedback feedback;
        feedback.row_instances = &instances;
        feedback.row_clusters = &clusters;
        feedback.preliminary = &out.mappings.back();
        mapping = schema_refined_->Match(prepared, feedback);
      }
    }
    out.report.stages.push_back({"schema_match" + iter_suffix,
                                 stage_timer.ElapsedSeconds(),
                                 stage_bytes_delta()});
    stage_gauge.Set(++stage_ordinal);

    // The sweep scope: everything for a full run; for a delta run the
    // initial scope plus every class whose mapping drifted from the
    // baseline this iteration (new tables always count as drift).
    ClassScope sweep = ctx.scope;
    if (delta) {
      const MappingDiff diff =
          DiffMappings((*ctx.baseline.mappings)[iteration], mapping);
      for (kb::ClassId cls : diff.classes) sweep.Add(cls);
    }
    std::vector<char> swept(classes.size(), 0);
    size_t num_swept = 0;
    for (size_t i = 0; i < classes.size(); ++i) {
      swept[i] = sweep.contains(classes[i]) ? 1 : 0;
      num_swept += swept[i];
    }
    classes_total_gauge.Set(static_cast<double>(num_swept));

    // Classes are independent given the mapping; run the in-scope ones on
    // the pool and collect into class order so feedback merging stays
    // deterministic.
    stage_timer.Restart();
    classes_done_gauge.Set(0.0);
    std::vector<ClassRunResult> class_results(classes.size());
    {
      util::trace::ScopedSpan classes_span("pipeline.class_sweep");
      classes_span.AddArg("iteration", static_cast<long long>(iteration + 1));
      classes_span.AddArg("in_scope", num_swept);
      pool().ParallelFor(classes.size(), [&](size_t i) {
        if (swept[i] == 0) return;
        class_results[i] = RunClass(*ctx.corpus, mapping, classes[i]);
        classes_done_gauge.Add(1.0);
      });
    }
    out.report.stages.push_back({"class_sweep" + iter_suffix,
                                 stage_timer.ElapsedSeconds(),
                                 stage_bytes_delta()});
    stage_gauge.Set(++stage_ordinal);
    for (size_t i = 0; i < classes.size(); ++i) {
      if (swept[i] == 0) continue;
      const ClassRunResult& result = class_results[i];
      ClassStageReport report;
      report.cls = result.cls;
      report.iteration = iteration + 1;
      report.stages = result.stage_seconds;
      report.total_seconds = result.total_seconds;
      out.report.classes.push_back(std::move(report));
    }

    // Feedback: freshly extracted for swept classes, replayed from the
    // baseline for the rest. Merging happens in run-class order either
    // way, so cluster-id offsets come out identical to a full run.
    stage_timer.Restart();
    std::vector<ClassFeedback> iteration_feedback(classes.size());
    for (size_t i = 0; i < classes.size(); ++i) {
      if (swept[i] != 0) {
        iteration_feedback[i] = ExtractClassFeedback(class_results[i]);
      } else {
        iteration_feedback[i] = (*ctx.baseline.feedback)[iteration][i];
      }
    }
    instances.clear();
    clusters.clear();
    MergeClassFeedback(iteration_feedback, &instances, &clusters);
    out.feedback.push_back(std::move(iteration_feedback));
    out.report.stages.push_back({"collect_feedback" + iter_suffix,
                                 stage_timer.ElapsedSeconds(),
                                 stage_bytes_delta()});
    stage_gauge.Set(++stage_ordinal);

    out.mappings.push_back(std::move(mapping));
    if (iteration == options_.iterations - 1) {
      for (size_t i = 0; i < classes.size(); ++i) {
        if (swept[i] == 0) continue;
        out.recomputed.push_back(classes[i]);
        out.classes.push_back(std::move(class_results[i]));
      }
    }
    LTEE_LOG(kDebug) << "pipeline iteration " << (iteration + 1) << " done";
  }
  out.report.total_seconds = run_timer.ElapsedSeconds();
  out.report.peak_rss_bytes = obsv::ReadPeakRssBytes();
  out.report.live_bytes_end = obsv::GetMemtrackTotals().live_bytes;
  prov::RefreshQualityGauges();
  out.report.metrics = util::Metrics().Snapshot();
  return out;
}

}  // namespace ltee::pipeline
