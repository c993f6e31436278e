// kbbench: runs one benchmark workload and prints its result as one JSON
// line on stdout (progress and problems go to stderr).
//
//   kbbench --workload extend_small --seed 1 --seconds 3 --trace 0
//           [--spans-out FILE]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// layers are driven one public call at a time and the metrics are the
// per-layer ones. Exit status 0 only when every correctness check passed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/json.h"
#include "workload.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "kbbench: %s\nusage: kbbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               problem);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  kbbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value of " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds < 0) {
        return Usage("--seconds takes a non-negative number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !kbbench::IsWorkload(options.workload)) {
    return Usage("--workload must be extend_small, extend_large or "
                 "ingest_serve");
  }

  const kbbench::RunOutcome outcome = kbbench::RunWorkload(options);
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "kbbench: check failed: %s\n", problem.c_str());
  }
  std::string line = "{\"correct\":";
  line += outcome.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(outcome.attempted);
  line += ",\"failed\":" + std::to_string(outcome.failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const kbbench::Metric& metric = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) line += ",";
    line += ltee::util::JsonQuote(metric.name) + ":{\"value\":" + value +
            ",\"unit\":" + ltee::util::JsonQuote(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return outcome.correct ? 0 : 1;
}
