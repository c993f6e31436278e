#include "layer_drive.h"

#include <sys/resource.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "util/metrics.h"

namespace kbbench {

namespace {

using ltee::pipeline::ClassRunResult;

/// Times of one class's calls within one sweep.
struct ClassTimes {
  double build_rows = 0.0;
  double cluster = 0.0;
  double fuse = 0.0;
  double detect = 0.0;
};

std::string CompareClass(const ClassRunResult& a, const ClassRunResult& b) {
  if (a.cls != b.cls) return "class order";
  if (a.rows.rows.size() != b.rows.rows.size()) return "row count";
  for (size_t i = 0; i < a.rows.rows.size(); ++i) {
    if (a.rows.rows[i].ref != b.rows.rows[i].ref) return "row set";
  }
  if (a.cluster_of_row != b.cluster_of_row ||
      a.num_clusters != b.num_clusters) {
    return "cluster_of_row";
  }
  if (a.detections.size() != b.detections.size()) return "detection count";
  for (size_t e = 0; e < a.detections.size(); ++e) {
    const auto& x = a.detections[e];
    const auto& y = b.detections[e];
    // Scores compare bit for bit: a NaN score must come out as NaN again.
    if (x.is_new != y.is_new || x.instance != y.instance ||
        std::bit_cast<uint64_t>(x.best_score) !=
            std::bit_cast<uint64_t>(y.best_score)) {
      return "detections";
    }
  }
  return "";
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double CounterValue(const char* name) {
  return static_cast<double>(
      ltee::util::Metrics().GetCounter(name).value());
}

uint64_t CountBlockPairs(const std::vector<std::vector<int32_t>>& blocks) {
  std::vector<std::vector<int>> rows_of_block;
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (int32_t b : blocks[i]) {
      if (b >= static_cast<int32_t>(rows_of_block.size())) {
        rows_of_block.resize(static_cast<size_t>(b) + 1);
      }
      rows_of_block[b].push_back(static_cast<int>(i));
    }
  }
  // seen[j] == i marks row j as already paired with row i.
  std::vector<int> seen(blocks.size(), -1);
  uint64_t pairs = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (int32_t b : blocks[i]) {
      for (int j : rows_of_block[b]) {
        if (j > static_cast<int>(i) && seen[j] != static_cast<int>(i)) {
          seen[j] = static_cast<int>(i);
          ++pairs;
        }
      }
    }
  }
  return pairs;
}

LayerRun DriveLayers(ltee::pipeline::LteePipeline& pipe,
                     const ltee::webtable::TableCorpus& corpus,
                     const std::vector<ltee::kb::ClassId>& classes,
                     ltee::util::ThreadPool* pool, Tracer* tracer,
                     LayerMetrics* metrics) {
  LayerMetrics& m = *metrics;
  const ltee::pipeline::LteePipeline& view = pipe;
  const ltee::kb::KnowledgeBase& kb = pipe.knowledge_base();
  const size_t n = classes.size();

  LayerRun out;
  Tracer::Scope drive(tracer, "pipeline.layer_drive");
  const ltee::webtable::PreparedCorpus& prepared = pipe.Prepared(corpus);
  const double tables0 = CounterValue("ltee.matching.tables_mapped");
  const double columns0 = CounterValue("ltee.matching.columns_matched");
  const double hits0 = CounterValue("ltee.rowcluster.pair_cache.hits");
  const double entities0 = CounterValue("ltee.fusion.entities_created");
  const double facts0 = CounterValue("ltee.fusion.facts_fused");
  const double scored0 = CounterValue("ltee.newdetect.entities_scored");
  const double new0 = CounterValue("ltee.newdetect.new_entities");

  ltee::matching::RowInstanceMap instances;
  ltee::matching::RowClusterMap clusters;
  double sweep_cpu = 0.0;
  double sweep_wall = 0.0;
  std::vector<ClassTimes> totals(n);
  for (int iteration = 0; iteration < pipe.options().iterations;
       ++iteration) {
    const std::string iter = "iter" + std::to_string(iteration + 1);
    ltee::matching::SchemaMapping mapping;
    {
      Tracer::Scope span(tracer, "matching.match." + iter);
      if (iteration == 0) {
        mapping = pipe.schema_matcher_first().Match(prepared);
      } else {
        ltee::matching::MatcherFeedback feedback;
        feedback.row_instances = &instances;
        feedback.row_clusters = &clusters;
        feedback.preliminary = &out.mappings.back();
        mapping = pipe.schema_matcher_refined().Match(prepared, feedback);
      }
      m["matching." + iter + "_s"] = span.Elapsed();
    }

    std::vector<ClassRunResult> results(n);
    std::vector<ClassTimes> times(n);
    const double misses0 = CounterValue("ltee.rowcluster.pair_cache.misses");
    const double cpu0 = ProcessCpuSeconds();
    {
      Tracer::Scope sweep(tracer, "pipeline.class_sweep." + iter);
      const int parent = sweep.id();
      pool->ParallelFor(n, [&](size_t i) {
        const ltee::kb::ClassId cls = classes[i];
        const std::string name = kb.cls(cls).name;
        Tracer::Scope class_span(tracer, "pipeline.class." + name, parent);
        ClassRunResult& r = results[i];
        r.cls = cls;
        {
          Tracer::Scope span(tracer, "rowcluster.build_rows." + name);
          r.rows = ltee::rowcluster::BuildClassRowSet(
              prepared, mapping, cls, kb, view.kb_index(),
              view.options().row_features);
          times[i].build_rows = span.Elapsed();
        }
        {
          Tracer::Scope span(tracer, "rowcluster.cluster." + name);
          auto clustering = view.clusterer_for(cls).Cluster(r.rows);
          r.cluster_of_row = std::move(clustering.cluster_of);
          r.num_clusters = clustering.num_clusters;
          times[i].cluster = span.Elapsed();
        }
        {
          Tracer::Scope span(tracer, "fusion.create." + name);
          r.entities = view.MakeEntityCreator().Create(
              r.rows, r.cluster_of_row, mapping, prepared);
          times[i].fuse = span.Elapsed();
        }
        {
          Tracer::Scope span(tracer, "newdetect.detect." + name);
          r.detections = view.detector_for(cls).Detect(r.entities);
          times[i].detect = span.Elapsed();
        }
      });
      m["pipeline.sweep_s." + iter] = sweep.Elapsed();
      sweep_wall += sweep.Elapsed();
    }
    sweep_cpu += ProcessCpuSeconds() - cpu0;
    m["rowcluster.pairs_scored." + iter] =
        CounterValue("ltee.rowcluster.pair_cache.misses") - misses0;
    for (size_t i = 0; i < n; ++i) {
      totals[i].build_rows += times[i].build_rows;
      totals[i].cluster += times[i].cluster;
      totals[i].fuse += times[i].fuse;
      totals[i].detect += times[i].detect;
    }

    {
      Tracer::Scope span(tracer, "pipeline.collect_feedback." + iter);
      instances.clear();
      clusters.clear();
      ltee::pipeline::LteePipeline::CollectFeedback(results, &instances,
                                                    &clusters);
    }
    out.mappings.push_back(std::move(mapping));
    out.iterations.push_back(std::move(results));
  }
  out.wall_s = drive.Elapsed();

  double build_rows = 0.0, fuse = 0.0, detect = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const std::string name = kb.cls(classes[i]).name;
    m["rowcluster.cluster_s." + name] = totals[i].cluster;
    m["rowcluster.rows." + name] =
        static_cast<double>(out.iterations.back()[i].rows.rows.size());
    build_rows += totals[i].build_rows;
    fuse += totals[i].fuse;
    detect += totals[i].detect;
  }
  m["rowcluster.build_rows_s"] = build_rows;
  m["fusion.create_s"] = fuse;
  m["newdetect.detect_s"] = detect;
  m["pipeline.sweep_busy_ratio"] = sweep_wall > 0 ? sweep_cpu / sweep_wall : 0;
  m["matching.tables_mapped"] =
      CounterValue("ltee.matching.tables_mapped") - tables0;
  m["matching.columns_matched"] =
      CounterValue("ltee.matching.columns_matched") - columns0;
  const double scored = m["rowcluster.pairs_scored.iter1"] +
                        m["rowcluster.pairs_scored.iter2"];
  m["rowcluster.pairs_scored"] = scored;
  m["rowcluster.pair_lookups"] =
      CounterValue("ltee.rowcluster.pair_cache.hits") - hits0 + scored;
  m["fusion.entities"] = CounterValue("ltee.fusion.entities_created") -
                         entities0;
  m["fusion.facts"] = CounterValue("ltee.fusion.facts_fused") - facts0;
  const double entities_scored =
      CounterValue("ltee.newdetect.entities_scored") - scored0;
  m["newdetect.entities_scored"] = entities_scored;
  m["newdetect.new_ratio"] =
      entities_scored > 0
          ? (CounterValue("ltee.newdetect.new_entities") - new0) /
                entities_scored
          : 0.0;
  return out;
}

std::string CompareWithRun(const LayerRun& drive,
                           const ltee::pipeline::PipelineRunResult& run) {
  if (drive.mappings.size() != run.mappings.size()) return "iteration count";
  for (size_t i = 0; i < drive.mappings.size(); ++i) {
    if (drive.mappings[i].tables != run.mappings[i].tables) {
      return "mapping of iteration " + std::to_string(i + 1);
    }
  }
  const auto& final_classes = drive.iterations.back();
  if (final_classes.size() != run.classes.size()) return "class count";
  for (size_t c = 0; c < run.classes.size(); ++c) {
    const std::string diff = CompareClass(final_classes[c], run.classes[c]);
    if (!diff.empty()) {
      return diff + " of class " + std::to_string(run.classes[c].cls);
    }
  }
  return "";
}

}  // namespace kbbench
