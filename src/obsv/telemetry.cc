#include "obsv/telemetry.h"

#include "obsv/access_log.h"
#include "obsv/memtrack.h"
#include "obsv/profiler.h"
#include "util/json.h"

namespace ltee::obsv {

namespace {

/// Looks a metric up in a taken snapshot without registering it — a
/// `run`-mode process asking for /stats must not grow zero-valued serve
/// counters in its registry as a side effect.
double CounterOr(const util::MetricsSnapshot& snap, std::string_view name,
                 double fallback) {
  for (const auto& [counter_name, value] : snap.counters) {
    if (counter_name == name) return static_cast<double>(value);
  }
  return fallback;
}

double GaugeOr(const util::MetricsSnapshot& snap, std::string_view name,
               double fallback) {
  for (const auto& [gauge_name, value] : snap.gauges) {
    if (gauge_name == name) return value;
  }
  return fallback;
}

/// `"active":..,"captures":..,"samples":..,"dropped":..` of one profiler.
void AppendSessionJson(std::string* out, SampledSession& session) {
  const CaptureTotals totals = session.Totals();
  *out += "\"active\":";
  *out += session.Active() ? "true" : "false";
  *out += ",\"captures\":";
  *out += std::to_string(totals.captures);
  *out += ",\"samples\":";
  *out += std::to_string(totals.samples);
  *out += ",\"dropped\":";
  *out += std::to_string(totals.dropped);
}

}  // namespace

RequestTelemetry& GlobalRequestTelemetry() {
  static RequestTelemetry* telemetry = new RequestTelemetry();
  return *telemetry;
}

std::string RenderStatsJson(int64_t in_flight) {
  const auto window = GlobalRequestTelemetry().latency_ms.Stats();
  const auto metrics = util::Metrics().Snapshot();
  const AccessLog& access_log = GlobalAccessLog();

  const double hits = CounterOr(metrics, "ltee.serve.cache.hits", 0.0);
  const double misses = CounterOr(metrics, "ltee.serve.cache.misses", 0.0);
  const double hit_ratio =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

  std::string out = "{\"window\":{\"seconds\":";
  out += std::to_string(RequestTelemetry::kWindowSeconds);
  out += ",\"covered_seconds\":";
  out += std::to_string(window.covered_seconds);
  out += ",\"requests\":";
  out += std::to_string(window.count);
  out += ",\"qps\":";
  util::AppendJsonNumber(&out, window.qps);
  out += ",\"latency_ms\":{\"p50\":";
  util::AppendJsonNumber(&out, window.p50);
  out += ",\"p95\":";
  util::AppendJsonNumber(&out, window.p95);
  out += ",\"p99\":";
  util::AppendJsonNumber(&out, window.p99);
  out += ",\"max\":";
  util::AppendJsonNumber(&out, window.max);
  out += "}},\"in_flight\":";
  out += std::to_string(in_flight);
  out += ",\"cache\":{\"hits\":";
  util::AppendJsonNumber(&out, hits);
  out += ",\"misses\":";
  util::AppendJsonNumber(&out, misses);
  out += ",\"evictions\":";
  util::AppendJsonNumber(
      &out, CounterOr(metrics, "ltee.serve.cache.evictions", 0.0));
  out += ",\"hit_ratio\":";
  util::AppendJsonNumber(&out, hit_ratio);
  out += "},\"queries\":";
  util::AppendJsonNumber(&out, CounterOr(metrics, "ltee.serve.queries", 0.0));
  out += ",\"snapshot_version\":";
  util::AppendJsonNumber(
      &out, GaugeOr(metrics, "ltee.serve.snapshot.version", 0.0));
  out += ",\"access_log\":{\"entries\":";
  out += std::to_string(access_log.size());
  out += ",\"capacity\":";
  out += std::to_string(access_log.capacity());
  out += ",\"total\":";
  out += std::to_string(access_log.total_recorded());
  out += ",\"slow\":";
  out += std::to_string(access_log.slow_count());
  out += ",\"slow_threshold_ms\":";
  util::AppendJsonNumber(&out, access_log.slow_threshold_ms());
  out += "},\"profiler\":{";
  AppendSessionJson(&out, CpuProfiler());
  const MemtrackTotals mem = GetMemtrackTotals();
  out += "},\"memory\":{\"tracking\":";
  out += MemTrackingEnabled() ? "true" : "false";
  out += ",\"span_accounting\":";
  out += SpanAccountingEnabled() ? "true" : "false";
  out += ",\"live_bytes\":";
  out += std::to_string(mem.live_bytes);
  out += ",\"live_allocs\":";
  out += std::to_string(mem.live_allocs);
  out += ",\"peak_live_bytes\":";
  out += std::to_string(mem.peak_live_bytes);
  out += ",\"cum_bytes\":";
  out += std::to_string(mem.cum_bytes);
  out += ",\"peak_rss_kb\":";
  out += std::to_string(ReadPeakRssBytes() / 1024);
  out += ",\"heap_profiler\":{";
  AppendSessionJson(&out, HeapProfiler());
  out += "}}}";
  return out;
}

}  // namespace ltee::obsv
