#include "obsv/status_server.h"

#include <cstdlib>

#include "obsv/memtrack.h"
#include "obsv/profiler.h"
#include "obsv/telemetry.h"
#include "prov/explain.h"
#include "util/metrics.h"
#include "util/prometheus.h"
#include "util/trace.h"

namespace ltee::obsv {

namespace {

/// GET /profile and GET /memory: one capture of `session` lasting
/// `seconds` (a number in (0, 30], default 1) at the integer
/// `rate_param` (in [1, max_rate], default `rate`; the session rate is
/// that times `rate_unit`). Malformed parameters are 400s. While a
/// session is open the answer is 503 — a second capture is refused, never
/// queued behind a foreign one.
HttpResponse BoundedCapture(const HttpRequest& request,
                            SampledSession& session, const char* rate_param,
                            long rate, long max_rate, long rate_unit) {
  HttpResponse response;
  double seconds = 1.0;
  const std::string seconds_param = QueryParam(request.query, "seconds");
  if (!seconds_param.empty()) {
    char* end = nullptr;
    seconds = std::strtod(seconds_param.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(seconds > 0.0) ||
        seconds > 30.0) {
      response.status = 400;
      response.body = "seconds must be a number in (0, 30]\n";
      return response;
    }
  }
  const std::string rate_text = QueryParam(request.query, rate_param);
  if (!rate_text.empty()) {
    char* end = nullptr;
    rate = std::strtol(rate_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || rate < 1 || rate > max_rate) {
      response.status = 400;
      response.body = std::string(rate_param) +
                      " must be an integer in [1, " +
                      std::to_string(max_rate) + "]\n";
      return response;
    }
  }
  std::string collapsed;
  std::string error;
  if (!session.Capture(seconds, int64_t{rate} * rate_unit, &collapsed,
                       &error)) {
    response.status = 503;
    response.body = error + "\n";
    return response;
  }
  response.content_type = "text/plain; charset=utf-8";
  response.body = std::move(collapsed);
  return response;
}

}  // namespace

StatusServer::StatusServer(size_t num_workers) : server_(num_workers) {
  server_.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  server_.Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = util::RenderPrometheusText(util::Metrics().Snapshot());
    return response;
  });
  server_.Handle("/stats", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = RenderStatsJson(server_.in_flight());
    return response;
  });
  server_.Handle("/trace", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = util::trace::ExportChromeTrace();
    return response;
  });
  // Bounded on-demand captures: a worker thread samples the whole
  // process for `seconds`, then streams the collapsed stacks.
  server_.Handle("/profile", [](const HttpRequest& request) {
    return BoundedCapture(request, CpuProfiler(), "hz", kDefaultProfilerHz,
                          1000, 1);
  });
  server_.Handle("/memory", [](const HttpRequest& request) {
    return BoundedCapture(request, HeapProfiler(), "sample_kb",
                          kDefaultHeapSampleBytes / 1024, 65536, 1024);
  });
  server_.Handle("/report", [this](const HttpRequest&) {
    HttpResponse response;
    std::lock_guard<std::mutex> lock(report_mu_);
    if (report_json_.empty()) {
      response.status = 404;
      response.body = "no report published yet\n";
    } else {
      response.content_type = "application/json";
      response.body = report_json_;
    }
    return response;
  });
  server_.Handle("/provenance", [this](const HttpRequest& request) {
    HttpResponse response;
    std::string ledger;
    {
      std::lock_guard<std::mutex> lock(report_mu_);
      ledger = provenance_jsonl_;
    }
    if (ledger.empty()) {
      response.status = 404;
      response.body = "no provenance ledger published yet\n";
      return response;
    }
    const std::string entity = QueryParam(request.query, "entity");
    if (entity.empty()) {
      // No filter: the raw JSON-lines ledger.
      response.content_type = "application/x-ndjson";
      response.body = std::move(ledger);
      return response;
    }
    prov::ExplainOptions options;
    options.entity = entity;
    options.property = QueryParam(request.query, "property");
    options.json = true;
    const prov::ExplainResult result = prov::Explain(ledger, options);
    if (!result.ok) {
      response.status = 500;
      response.body = result.error + "\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = result.output;
    return response;
  });
}

bool StatusServer::Start(uint16_t port, std::string* error) {
  return server_.Start(port, error);
}

void StatusServer::Stop() { server_.Stop(); }

void StatusServer::PublishReport(std::string report_json) {
  std::lock_guard<std::mutex> lock(report_mu_);
  report_json_ = std::move(report_json);
}

void StatusServer::PublishProvenance(std::string ledger_jsonl) {
  std::lock_guard<std::mutex> lock(report_mu_);
  provenance_jsonl_ = std::move(ledger_jsonl);
}

}  // namespace ltee::obsv
