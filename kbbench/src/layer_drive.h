// The traced run's layer-by-layer drive: one two-iteration pass through the
// public calls that LteePipeline::Run makes, with a span around each call
// and per-layer times and work counts taken around it.
#ifndef KBBENCH_LAYER_DRIVE_H_
#define KBBENCH_LAYER_DRIVE_H_

#include <map>
#include <string>
#include <vector>

#include "pipeline/pipeline.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace kbbench {

/// Named per-layer numbers, in the units the benchmark reports.
using LayerMetrics = std::map<std::string, double>;

struct LayerRun {
  /// Mapping of each iteration.
  std::vector<ltee::matching::SchemaMapping> mappings;
  /// Class results of each iteration, in run-class order.
  std::vector<std::vector<ltee::pipeline::ClassRunResult>> iterations;
  double wall_s = 0.0;
};

/// Runs schema matching -> (row sets -> clustering -> fusion -> new
/// detection per class, swept over `pool`) twice, building the second
/// iteration's matcher feedback with LteePipeline::CollectFeedback, as
/// LteePipeline::Run does. Adds its layer numbers to `metrics`.
LayerRun DriveLayers(ltee::pipeline::LteePipeline& pipe,
                     const ltee::webtable::TableCorpus& corpus,
                     const std::vector<ltee::kb::ClassId>& classes,
                     ltee::util::ThreadPool* pool, Tracer* tracer,
                     LayerMetrics* metrics);

/// Empty when the drive's final iteration equals `run` (mappings, row
/// sets, clusters and detections); otherwise what differs.
std::string CompareWithRun(const LayerRun& drive,
                           const ltee::pipeline::PipelineRunResult& run);

/// Distinct row pairs that share at least one block of `blocks` (as
/// returned by RowClusterer::BuildBlocks: block ids per row).
uint64_t CountBlockPairs(const std::vector<std::vector<int32_t>>& blocks);

/// Process CPU time (user + system), seconds.
double ProcessCpuSeconds();

/// Current value of a util::Metrics() counter.
double CounterValue(const char* name);

}  // namespace kbbench

#endif  // KBBENCH_LAYER_DRIVE_H_
