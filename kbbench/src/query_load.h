// Open-loop query generator against a serve::QueryEngine. One thread,
// pinned to a CPU of its own and spinning between queries, issues a fixed
// 60/30/10 mix of id / label / search queries at a fixed rate, whatever
// the engine's latency. Keys are drawn uniformly from the pool, as
// bench_serve_load draws them; no trace of real lookup traffic backs a skew
// or a rate. Each query's service time is recorded, and separately
// how late it started against its schedule. Every answer is checked.
#ifndef KBBENCH_QUERY_LOAD_H_
#define KBBENCH_QUERY_LOAD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_engine.h"

namespace kbbench {

/// What the generator asks, in a fixed order: ids and labels every
/// published snapshot holds (the base KB's). Labels double as search
/// strings.
struct QueryPool {
  std::vector<int64_t> ids;
  std::vector<std::string> labels;
};

struct QueryLoadResult {
  /// Service time of every query, start to answer, microseconds.
  std::vector<double> latency_us;
  /// How far behind its due time each query started, milliseconds.
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// First few failure descriptions.
  std::vector<std::string> failures;
};

class QueryLoad {
 public:
  /// `cpu` >= 0 pins the generator thread to that CPU.
  QueryLoad(ltee::serve::QueryEngine* engine, QueryPool pool, double rate,
            uint64_t seed, int cpu);
  ~QueryLoad();
  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;

  void Start();
  /// Stops the generator, joins it and returns what it measured.
  QueryLoadResult Stop();

 private:
  void Loop();

  ltee::serve::QueryEngine* engine_;
  const QueryPool pool_;
  const double rate_;
  const uint64_t seed_;
  const int cpu_;
  std::atomic<bool> stop_{false};
  QueryLoadResult result_;
  std::thread thread_;
};

}  // namespace kbbench

#endif  // KBBENCH_QUERY_LOAD_H_
