// The benchmark's workloads. Each run sets up its inputs from the seed
// (several times, reporting the median), runs the KB-extension job once,
// then serves queries while it ingests batches, and checks every output.
#ifndef KBBENCH_WORKLOAD_H_
#define KBBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kbbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the ingest-while-serving phase.
  double seconds = 1.0;
  /// Traced run: drive the layers one call at a time and report per-layer
  /// metrics instead of end-to-end ones.
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty for none.
  std::string spans_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  /// Every correctness check passed.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// What failed, one line each.
  std::vector<std::string> problems;
};

bool IsWorkload(const std::string& name);

RunOutcome RunWorkload(const RunOptions& options);

}  // namespace kbbench

#endif  // KBBENCH_WORKLOAD_H_
