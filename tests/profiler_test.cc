// Sampling CPU profiler: signal-safe stack capture and symbolization,
// collapsed-profile collection with span attribution, single-capture
// serialization, the /profile endpoint's validation and busy semantics,
// and the trace-vs-profile consistency gate (the two observability
// views of the same fixed-seed run must agree on where the CPU went).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obsv/http_client.h"
#include "obsv/memtrack.h"
#include "obsv/profile_analysis.h"
#include "obsv/profiler.h"
#include "obsv/span_analytics.h"
#include "obsv/status_server.h"
#include "pipeline/pipeline.h"
#include "pipeline/training.h"
#include "test_dataset.h"
#include "util/json.h"
#include "util/json_parse.h"
#include "util/stack_capture.h"
#include "util/trace.h"

namespace ltee {

/// External linkage + noinline so the frame survives optimization and
/// stays out of the anonymous namespace — dladdr (via the test binary's
/// exported symbols) can only name it then.
__attribute__((noinline)) int CaptureStackFromNamedFrame(void** frames,
                                                         int max_depth) {
  const int depth = util::CaptureStack(frames, max_depth);
  // Keep a side effect after the call so the tail call cannot replace
  // this frame on the stack.
  return depth > 0 ? depth : -1;
}

namespace {

/// Burns at least `seconds` of process CPU time (what ITIMER_PROF
/// meters), returning a value the optimizer cannot discard.
uint64_t BurnCpu(double seconds) {
  const auto start = std::chrono::steady_clock::now();
  volatile uint64_t acc = 1;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < seconds) {
    for (int i = 0; i < 10000; ++i) acc = acc * 2862933555777941757ULL + 3037;
  }
  return acc;
}

TEST(StackCapture, CapturesAndSymbolizesTheCallingFrame) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  util::WarmUpStackCapture();
  void* frames[util::kMaxStackDepth] = {};
  const int depth = CaptureStackFromNamedFrame(frames, util::kMaxStackDepth);
  ASSERT_GT(depth, 1);

  // CaptureStack excludes its own frame, so the leaf is the named helper.
  const util::SymbolizedFrame leaf = util::SymbolizeAddress(frames[0]);
  EXPECT_TRUE(leaf.known) << leaf.name;
  EXPECT_NE(leaf.name.find("CaptureStackFromNamedFrame"), std::string::npos)
      << leaf.name;

  // Every captured address symbolizes to *something* (module+offset at
  // worst, never an empty string).
  for (int i = 0; i < depth; ++i) {
    EXPECT_FALSE(util::SymbolizeAddress(frames[i]).name.empty());
  }
}

TEST(StackCapture, DemangleHandlesMangledAndPlainNames) {
  EXPECT_EQ(util::DemangleSymbol("_Z3foov"), "foo()");
  // Non-mangled input passes through untouched.
  EXPECT_EQ(util::DemangleSymbol("main"), "main");
  EXPECT_EQ(util::DemangleSymbol(""), "");
}

TEST(Profiler, CaptureAttributesSamplesToOpenSpans) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  obsv::SampledSession& cpu = obsv::CpuProfiler();
  std::string error;
  ASSERT_TRUE(cpu.Start(499, &error)) << error;
  EXPECT_TRUE(cpu.Active());
  EXPECT_TRUE(util::trace::IsSpanTrackingEnabled());
  {
    // Opened after Start so the span-name mirror is live.
    util::trace::ScopedSpan span("test.profiler_burn");
    BurnCpu(0.4);
  }
  cpu.Stop();
  EXPECT_FALSE(cpu.Active());

  const obsv::SessionStats stats = cpu.Stats();
  EXPECT_GT(stats.samples, 0u);
  EXPECT_EQ(stats.rate, 499);

  const std::string collapsed = cpu.Collect();
  EXPECT_EQ(collapsed.rfind("# ltee-profile ", 0), 0u);
  EXPECT_NE(collapsed.find("span:test.profiler_burn;"), std::string::npos);

  obsv::ProfileAnalysis analysis;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(collapsed, &analysis, &error))
      << error;
  EXPECT_EQ(analysis.hz, 499);
  EXPECT_GT(analysis.samples, 0u);
  uint64_t burn_samples = 0;
  for (const auto& span : analysis.spans) {
    if (span.name == "test.profiler_burn") burn_samples = span.samples;
  }
  // Nearly all CPU burned inside the span; leave slack for test-harness
  // frames sampled outside it.
  EXPECT_GT(burn_samples, analysis.samples / 2);

  cpu.Reset();
  EXPECT_EQ(cpu.Stats().samples, 0u);
  EXPECT_FALSE(util::trace::IsSpanTrackingEnabled());
}

/// One profiler whose session the exclusivity test drives.
struct SessionCase {
  const char* name;
  obsv::SampledSession& (*session)();
  int64_t rate;
  /// A header key only this profiler's collapsed output carries.
  const char* header_key;
};

void PrintTo(const SessionCase& c, std::ostream* os) { *os << c.name; }

class SessionExclusivity : public ::testing::TestWithParam<SessionCase> {};

TEST_P(SessionExclusivity, SecondCaptureIsRefusedUntilReset) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  const SessionCase& c = GetParam();
  if (c.session == &obsv::HeapProfiler && !obsv::MemTrackingSupported()) {
    GTEST_SKIP() << "allocator interposition compiled out";
  }
  obsv::SampledSession& session = c.session();
  const uint64_t captures = session.Totals().captures;
  std::string error;
  ASSERT_TRUE(session.Start(c.rate, &error)) << error;
  EXPECT_EQ(session.Totals().captures, captures + 1);
  // The session is exclusive: no second start, no bounded capture.
  EXPECT_FALSE(session.Start(c.rate, &error));
  EXPECT_FALSE(error.empty());
  std::string collapsed;
  EXPECT_FALSE(session.Capture(0.05, c.rate, &collapsed, &error));

  // Stop is idempotent: a second one neither re-counts the samples nor
  // moves the duration.
  session.Stop();
  const obsv::CaptureTotals stopped = session.Totals();
  const double duration_s = session.Stats().duration_s;
  session.Stop();
  EXPECT_FALSE(session.Active());
  EXPECT_EQ(session.Totals().samples, stopped.samples);
  EXPECT_EQ(session.Totals().dropped, stopped.dropped);
  EXPECT_EQ(session.Stats().duration_s, duration_s);

  // The session stays owned through Stop and Collect — an exporter must
  // never race a new capture reusing the rings.
  EXPECT_FALSE(session.Capture(0.05, c.rate, &collapsed, &error));
  (void)session.Collect();
  session.Reset();
  EXPECT_EQ(session.Totals().captures, captures + 1);

  // Reset closes the session; the next bounded capture succeeds and
  // counts as one more capture.
  ASSERT_TRUE(session.Capture(0.05, c.rate, &collapsed, &error)) << error;
  EXPECT_EQ(session.Totals().captures, captures + 2);
  EXPECT_EQ(collapsed.rfind("# ltee-profile ", 0), 0u);
  EXPECT_NE(collapsed.find(c.header_key), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    BothProfilers, SessionExclusivity,
    ::testing::Values(
        SessionCase{"cpu", &obsv::CpuProfiler, obsv::kDefaultProfilerHz,
                    " hz="},
        SessionCase{"heap", &obsv::HeapProfiler,
                    obsv::kDefaultHeapSampleBytes, " heap=1"}));

TEST(Profiler, ParseCollapsedComputesSelfTotalAndSpans) {
  const std::string text =
      "# ltee-profile hz=99 samples=10 dropped=2 duration_s=1.500 "
      "req_samples=3\n"
      "span:alpha;main;work;hot 6\n"
      "span:alpha;main;work 1\n"
      "span:(none);main;idle 3\n";
  obsv::ProfileAnalysis analysis;
  std::string error;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(text, &analysis, &error)) << error;
  EXPECT_EQ(analysis.hz, 99);
  EXPECT_EQ(analysis.samples, 10u);
  EXPECT_EQ(analysis.dropped, 2u);
  EXPECT_DOUBLE_EQ(analysis.duration_s, 1.5);

  // Frames sorted by self descending: hot(6), idle(3), work(1), main(0).
  ASSERT_EQ(analysis.frames.size(), 4u);
  EXPECT_EQ(analysis.frames[0].name, "hot");
  EXPECT_EQ(analysis.frames[0].self, 6u);
  EXPECT_EQ(analysis.frames[0].total, 6u);
  EXPECT_EQ(analysis.frames[1].name, "idle");
  EXPECT_EQ(analysis.frames[1].self, 3u);
  EXPECT_EQ(analysis.frames[2].name, "work");
  EXPECT_EQ(analysis.frames[2].self, 1u);
  EXPECT_EQ(analysis.frames[2].total, 7u);
  EXPECT_EQ(analysis.frames[3].name, "main");
  EXPECT_EQ(analysis.frames[3].self, 0u);
  EXPECT_EQ(analysis.frames[3].total, 10u);

  ASSERT_EQ(analysis.spans.size(), 2u);
  EXPECT_EQ(analysis.spans[0].name, "alpha");
  EXPECT_EQ(analysis.spans[0].samples, 7u);
  EXPECT_DOUBLE_EQ(analysis.spans[0].pct, 70.0);
  EXPECT_EQ(analysis.spans[1].name, "(none)");
  EXPECT_EQ(analysis.spans[1].samples, 3u);

  // Headers-only profile parses as empty; malformed stack lines fail.
  obsv::ProfileAnalysis empty;
  ASSERT_TRUE(obsv::ParseCollapsedProfile("# ltee-profile hz=99 samples=0\n",
                                          &empty, &error));
  EXPECT_TRUE(empty.frames.empty());
  obsv::ProfileAnalysis bad;
  EXPECT_FALSE(obsv::ParseCollapsedProfile("no trailing count\n", &bad,
                                           &error));
  EXPECT_FALSE(error.empty());
}

TEST(Profiler, AnalysisRendersValidJsonAndText) {
  const std::string text =
      "# ltee-profile hz=99 samples=4 dropped=0 duration_s=0.500\n"
      "span:alpha;main;hot 3\n"
      "span:(none);main 1\n";
  obsv::ProfileAnalysis analysis;
  std::string error;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(text, &analysis, &error)) << error;

  const std::string json = obsv::ProfileAnalysisToJson(analysis);
  ASSERT_TRUE(util::JsonIsValid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"top_functions\""), std::string::npos);
  EXPECT_NE(json.find("\"self_pct\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);

  const std::string report = obsv::ProfileAnalysisToText(analysis);
  EXPECT_NE(report.find("hot"), std::string::npos);
  EXPECT_NE(report.find("alpha"), std::string::npos);
}

TEST(ProfileAnalysis, LongFrameNamesSurviveEveryReport) {
  // Long demangled template names must reach every report whole, and
  // never break its JSON.
  const std::string name = "ns::Widget<" + std::string(300, 'T') + ">::run";
  for (const char* header :
       {"# ltee-profile hz=99 samples=2 dropped=0 duration_s=0.100\n",
        "# ltee-profile heap=1 sample_kb=64 samples=2 dropped=0 "
        "duration_s=0.100 live_bytes=2048 live_allocs=2 peak_rss_kb=1\n"}) {
    const std::string text =
        std::string(header) + "span:alpha;main;" + name + " 2048\n";
    obsv::ProfileAnalysis analysis;
    std::string error;
    ASSERT_TRUE(obsv::ParseCollapsedProfile(text, &analysis, &error))
        << error;
    const bool heap = analysis.heap;
    const std::string json = heap ? obsv::HeapAnalysisToJson(analysis)
                                  : obsv::ProfileAnalysisToJson(analysis);
    util::JsonValue parsed;
    EXPECT_TRUE(util::ParseJson(json, &parsed, &error)) << error << "\n"
                                                        << json;
    EXPECT_NE(json.find(name), std::string::npos) << json;
    const std::string report = heap ? obsv::HeapAnalysisToText(analysis)
                                    : obsv::ProfileAnalysisToText(analysis);
    EXPECT_NE(report.find(name + "\n"), std::string::npos) << report;
  }
}

TEST(ProfileEndpoint, ValidatesParametersAndSerializesCaptures) {
  obsv::StatusServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  // Malformed or out-of-range parameters are client errors, not captures.
  int status = 0;
  std::string body;
  for (const char* path :
       {"/profile?seconds=abc", "/profile?seconds=0", "/profile?seconds=31",
        "/profile?seconds=1&hz=0", "/profile?seconds=1&hz=5000"}) {
    ASSERT_TRUE(obsv::HttpGet(server.port(), path, &status, &body, &error))
        << error;
    EXPECT_EQ(status, 400) << path;
  }

  if (util::StackCaptureSupported()) {
    // While a capture session is open elsewhere the endpoint answers 503
    // (busy), never queues.
    obsv::SampledSession& cpu = obsv::CpuProfiler();
    ASSERT_TRUE(cpu.Start(obsv::kDefaultProfilerHz, &error)) << error;
    ASSERT_TRUE(obsv::HttpGet(server.port(), "/profile?seconds=0.1",
                              &status, &body, &error))
        << error;
    EXPECT_EQ(status, 503);
    cpu.Stop();
    (void)cpu.Collect();
    cpu.Reset();

    // Happy path: keep a worker burning CPU so the bounded capture has
    // something to sample, then round-trip the collapsed body.
    std::atomic<bool> stop{false};
    std::thread burner([&stop] {
      while (!stop.load()) BurnCpu(0.05);
    });
    ASSERT_TRUE(obsv::HttpGet(server.port(), "/profile?seconds=0.3&hz=199",
                              &status, &body, &error))
        << error;
    stop.store(true);
    burner.join();
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body.rfind("# ltee-profile ", 0), 0u);
    obsv::ProfileAnalysis analysis;
    EXPECT_TRUE(obsv::ParseCollapsedProfile(body, &analysis, &error))
        << error;
    EXPECT_EQ(analysis.hz, 199);
  }
  server.Stop();
}

/// The consistency gate between the two observability views: a fixed-seed
/// pipeline run captured by BOTH the span tracer and the sampling
/// profiler must tell one story. Every span the profiler charges >= 1% of
/// CPU to must exist in the Chrome trace, and the hottest profiled span
/// must sit near the top of the trace's self-time ranking. Assertions are
/// tolerant: sampling is statistical and self-time is wall-based while
/// samples are CPU-based, so only gross disagreement fails.
TEST(ProfilerTraceConsistency, SpanAttributionAgreesWithChromeTrace) {
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  const auto& ds = ltee::testing::SharedDataset();

  util::trace::Clear();
  util::trace::SetEnabled(true);
  obsv::SampledSession& cpu = obsv::CpuProfiler();
  std::string error;
  ASSERT_TRUE(cpu.Start(499, &error)) << error;

  pipeline::PipelineOptions pipe_options;
  pipeline::LteePipeline pipe(ds.kb, pipe_options);
  util::Rng rng(41);
  pipeline::TrainPipelineOnGold(&pipe, ds.gs_corpus, ds.gold, rng);
  std::vector<kb::ClassId> classes;
  for (const auto& gs : ds.gold) classes.push_back(gs.cls);
  (void)pipe.Run(ds.gs_corpus, classes);

  cpu.Stop();
  util::trace::SetEnabled(false);
  const std::string trace_json = util::trace::ExportChromeTrace();
  const std::string collapsed = cpu.Collect();
  cpu.Reset();

  obsv::ProfileAnalysis profile;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(collapsed, &profile, &error))
      << error;
  ASSERT_GT(profile.samples, 0u);

  obsv::TraceAnalysis trace;
  ASSERT_TRUE(obsv::AnalyzeChromeTrace(trace_json, &trace, &error)) << error;
  ASSERT_FALSE(trace.spans.empty());

  std::vector<std::string> traced_names;
  for (const auto& span : trace.spans) traced_names.push_back(span.name);
  const auto traced = [&traced_names](const std::string& name) {
    for (const auto& t : traced_names) {
      if (t == name) return true;
    }
    return false;
  };

  // Every materially-profiled span is a real traced span (the signal-safe
  // name mirror and the trace recorder saw the same ScopedSpans).
  std::vector<std::string> hot_spans;  // >= 1% of samples, "(none)" aside
  for (const auto& span : profile.spans) {
    if (span.name == "(none)" || span.pct < 1.0) continue;
    hot_spans.push_back(span.name);
    EXPECT_TRUE(traced(span.name))
        << "profiled span missing from trace: " << span.name;
  }

  // Ordering agreement, only when there is enough signal to rank: the
  // profiler's hottest span must rank in the trace's top self-time spans.
  if (profile.samples >= 50 && !hot_spans.empty()) {
    const size_t top_k = std::min<size_t>(5, traced_names.size());
    bool found = false;
    for (size_t i = 0; i < top_k; ++i) {
      if (traced_names[i] == hot_spans[0]) found = true;
    }
    EXPECT_TRUE(found) << "profiler top span " << hot_spans[0]
                       << " not in trace top-" << top_k << " self-time";
    // And of the profiler's top three spans, most appear in the trace's
    // top eight (tolerant set overlap, not strict order equality).
    size_t overlap = 0;
    const size_t trace_k = std::min<size_t>(8, traced_names.size());
    for (size_t i = 0; i < std::min<size_t>(3, hot_spans.size()); ++i) {
      for (size_t j = 0; j < trace_k; ++j) {
        if (traced_names[j] == hot_spans[i]) {
          ++overlap;
          break;
        }
      }
    }
    EXPECT_GE(2 * overlap, std::min<size_t>(3, hot_spans.size()))
        << "span rankings disagree between profiler and trace";
  }
}

}  // namespace
}  // namespace ltee
