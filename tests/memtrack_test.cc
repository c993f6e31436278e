// Memory observability (obsv/memtrack): allocator interposition on/off,
// span-attributed byte accounting, sampled heap-profile collect/reset
// round trips, peak-RSS monotonicity, /memory endpoint semantics, and
// the reconciliation gates between memtrack accounting and the two
// existing footprint estimates (the row-clusterer dense-pair-cache gauge
// and ShardedLruCache::ApproxFootprintBytes).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obsv/http_client.h"
#include "obsv/memtrack.h"
#include "obsv/profile_analysis.h"
#include "obsv/status_server.h"
#include "pipeline/gold_artifacts.h"
#include "pipeline/pipeline.h"
#include "rowcluster/row_clusterer.h"
#include "rowcluster/row_features.h"
#include "serve/result_cache.h"
#include "test_dataset.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/stack_capture.h"
#include "util/trace.h"

namespace ltee {
namespace {

using ::ltee::testing::SharedDataset;

/// Allocates `count` blocks of `block_bytes` through operator new[] and
/// touches them so the allocation cannot be elided. The caller keeps the
/// result alive to hold the bytes live.
std::vector<std::unique_ptr<char[]>> AllocateBlocks(size_t count,
                                                    size_t block_bytes) {
  std::vector<std::unique_ptr<char[]>> blocks;
  blocks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    blocks.emplace_back(new char[block_bytes]);
    blocks.back()[0] = static_cast<char>(i);
    blocks.back()[block_bytes - 1] = 1;
  }
  return blocks;
}

/// The span table entry for `name`, or a default-constructed one.
obsv::SpanBytes SpanEntry(const std::string& name) {
  for (const auto& span : obsv::MemtrackSpanBytes()) {
    if (span.span == name) return span;
  }
  return {};
}

double GaugeValue(const char* name) {
  const auto snap = util::Metrics().Snapshot();
  for (const auto& [gauge_name, value] : snap.gauges) {
    if (gauge_name == name) return value;
  }
  return 0.0;
}

TEST(Memtrack, CountersTrackLiveAndCumulativeDeltas) {
  if (!obsv::MemTrackingSupported()) {
    GTEST_SKIP() << "allocator interposition compiled out";
  }
  obsv::SetMemTrackingEnabled(true);
  EXPECT_TRUE(obsv::MemTrackingEnabled());

  constexpr size_t kBlocks = 16;
  constexpr size_t kBlockBytes = 64 * 1024;
  const obsv::MemtrackTotals before = obsv::GetMemtrackTotals();
  {
    auto blocks = AllocateBlocks(kBlocks, kBlockBytes);
    const obsv::MemtrackTotals during = obsv::GetMemtrackTotals();
    EXPECT_GE(during.live_bytes - before.live_bytes, kBlocks * kBlockBytes);
    EXPECT_GE(during.live_allocs - before.live_allocs, kBlocks);
    EXPECT_GE(during.cum_bytes - before.cum_bytes, kBlocks * kBlockBytes);
    EXPECT_GE(during.cum_allocs - before.cum_allocs, kBlocks);
    // Peak tracks the high-water mark of live bytes.
    EXPECT_GE(during.peak_live_bytes, during.live_bytes);
  }
  // Everything freed: live returns to within test-harness noise of the
  // starting point; cumulative counters stay monotone.
  const obsv::MemtrackTotals after = obsv::GetMemtrackTotals();
  EXPECT_LT(after.live_bytes - before.live_bytes, 16u * 1024u);
  EXPECT_GE(after.cum_bytes, before.cum_bytes);

  // With tracking off the counters freeze (the header still makes the
  // eventual frees interpretable).
  obsv::SetMemTrackingEnabled(false);
  EXPECT_FALSE(obsv::MemTrackingEnabled());
  const obsv::MemtrackTotals off_before = obsv::GetMemtrackTotals();
  {
    auto blocks = AllocateBlocks(kBlocks, kBlockBytes);
    const obsv::MemtrackTotals off_during = obsv::GetMemtrackTotals();
    EXPECT_LT(off_during.cum_bytes - off_before.cum_bytes,
              kBlocks * kBlockBytes);
    EXPECT_LT(off_during.live_bytes - off_before.live_bytes,
              kBlocks * kBlockBytes);
  }
}

TEST(Memtrack, AttributesLiveBytesToTheOpenSpan) {
  if (!obsv::MemTrackingSupported()) {
    GTEST_SKIP() << "allocator interposition compiled out";
  }
  obsv::SetMemTrackingEnabled(true);
  // Attribution is its own switch on top of the counters (heap-profiler
  // sessions flip it automatically; here we drive it directly).
  obsv::SetSpanAccountingEnabled(true);
  EXPECT_TRUE(obsv::SpanAccountingEnabled());

  constexpr size_t kBlocks = 8;
  constexpr size_t kBlockBytes = 64 * 1024;
  const obsv::SpanBytes before = SpanEntry("memtest.span_attr");
  {
    // Opened after enable so the span mirror is live for this thread.
    util::trace::ScopedSpan span("memtest.span_attr");
    auto blocks = AllocateBlocks(kBlocks, kBlockBytes);
    const obsv::SpanBytes during = SpanEntry("memtest.span_attr");
    EXPECT_GE(during.cum_bytes - before.cum_bytes, kBlocks * kBlockBytes);
    EXPECT_GE(during.allocs - before.allocs, kBlocks);
    EXPECT_GE(during.live_bytes, kBlocks * kBlockBytes);
  }
  // The frees decrement the same span's live bytes even though the span
  // is closed now (attribution rides the allocation header).
  const obsv::SpanBytes after = SpanEntry("memtest.span_attr");
  EXPECT_LT(after.live_bytes, 16u * 1024u);
  EXPECT_GE(after.cum_bytes - before.cum_bytes, kBlocks * kBlockBytes);

  obsv::SetSpanAccountingEnabled(false);
  obsv::SetMemTrackingEnabled(false);
}

TEST(Memtrack, PeakRssIsPositiveAndMonotonic) {
  // ReadPeakRssBytes works regardless of interposition support.
  const uint64_t first = obsv::ReadPeakRssBytes();
  EXPECT_GT(first, 0u);
  {
    auto blocks = AllocateBlocks(128, 64 * 1024);
    const uint64_t grown = obsv::ReadPeakRssBytes();
    EXPECT_GE(grown, first);
  }
  // VmHWM is a high-water mark: freeing must never lower it.
  EXPECT_GE(obsv::ReadPeakRssBytes(), first);
}

TEST(HeapProfiler, SampledCollectRoundTripAndReset) {
  if (!obsv::MemTrackingSupported()) {
    GTEST_SKIP() << "allocator interposition compiled out";
  }
  if (!util::StackCaptureSupported()) {
    GTEST_SKIP() << "no backtrace/dladdr on this platform";
  }
  obsv::SampledSession& heap = obsv::HeapProfiler();
  constexpr int64_t kSampleBytes = 1024;  // every allocation in the test
  std::string error;
  ASSERT_TRUE(heap.Start(kSampleBytes, &error)) << error;
  EXPECT_TRUE(heap.Active());
  EXPECT_TRUE(obsv::MemTrackingEnabled());

  std::vector<std::unique_ptr<char[]>> blocks;
  {
    util::trace::ScopedSpan span("memtest.heap_span");
    blocks = AllocateBlocks(32, 16 * 1024);
  }
  heap.Stop();
  EXPECT_FALSE(heap.Active());

  const obsv::SessionStats stats = heap.Stats();
  EXPECT_GT(stats.samples, 0u);
  EXPECT_EQ(stats.rate, kSampleBytes);

  // The session stays owned through Stop and Collect; no second start.
  const std::string collapsed = heap.Collect();
  EXPECT_FALSE(heap.Start(kSampleBytes, &error));
  EXPECT_FALSE(error.empty());

  EXPECT_EQ(collapsed.rfind("# ltee-profile ", 0), 0u);
  EXPECT_NE(collapsed.find(" heap=1"), std::string::npos);
  EXPECT_NE(collapsed.find("span:memtest.heap_span;"), std::string::npos);
  EXPECT_NE(collapsed.find("# ltee-memtrack-span memtest.heap_span "),
            std::string::npos);

  // Round trip: one parser reads the heap header, the span lines and the
  // stack lines (live bytes as counts).
  obsv::ProfileAnalysis analysis;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(collapsed, &analysis, &error))
      << error;
  EXPECT_TRUE(analysis.heap);
  EXPECT_EQ(analysis.sample_kb, 1u);
  EXPECT_GT(analysis.live_bytes, 0u);
  EXPECT_GT(analysis.peak_rss_kb, 0u);
  EXPECT_FALSE(analysis.span_bytes.empty());
  uint64_t span_bytes = 0;
  for (const auto& span : analysis.spans) {
    if (span.name == "memtest.heap_span") span_bytes = span.samples;
  }
  // All 32 * 16KB blocks were alive at collect time and sampled densely.
  EXPECT_GE(span_bytes, 32u * 16u * 1024u);

  // Reset closes the session: stats clear and a new capture can start.
  heap.Reset();
  EXPECT_EQ(heap.Stats().samples, 0u);
  ASSERT_TRUE(heap.Start(kSampleBytes, &error)) << error;
  heap.Stop();
  heap.Reset();
  EXPECT_FALSE(obsv::MemTrackingEnabled());
}

TEST(MemoryEndpoint, ValidatesParametersAndServesCaptures) {
  obsv::StatusServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;

  // Malformed or out-of-range parameters are client errors, not captures.
  int status = 0;
  std::string body;
  for (const char* path :
       {"/memory?seconds=abc", "/memory?seconds=0", "/memory?seconds=31",
        "/memory?seconds=1&sample_kb=0", "/memory?seconds=1&sample_kb=abc",
        "/memory?seconds=1&sample_kb=70000"}) {
    ASSERT_TRUE(obsv::HttpGet(server.port(), path, &status, &body, &error))
        << error;
    EXPECT_EQ(status, 400) << path;
  }

  if (!obsv::MemTrackingSupported() || !util::StackCaptureSupported()) {
    // Without interposition the endpoint always refuses with 503 — it
    // can never capture, but it must not crash or hang.
    ASSERT_TRUE(obsv::HttpGet(server.port(), "/memory?seconds=0.1", &status,
                              &body, &error))
        << error;
    EXPECT_EQ(status, 503);
    server.Stop();
    return;
  }

  // While a heap session is open elsewhere the endpoint answers 503
  // (busy), never queues.
  obsv::SampledSession& heap = obsv::HeapProfiler();
  ASSERT_TRUE(heap.Start(obsv::kDefaultHeapSampleBytes, &error)) << error;
  ASSERT_TRUE(obsv::HttpGet(server.port(), "/memory?seconds=0.1", &status,
                            &body, &error))
      << error;
  EXPECT_EQ(status, 503);
  heap.Stop();
  (void)heap.Collect();
  heap.Reset();

  // Happy path: keep a worker allocating so the capture window sees live
  // bytes, then round-trip the collapsed heap body.
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<char[]>> held;
  std::thread allocator([&stop, &held] {
    while (!stop.load() && held.size() < 512) {
      auto blocks = AllocateBlocks(1, 64 * 1024);
      held.push_back(std::move(blocks.front()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ASSERT_TRUE(obsv::HttpGet(server.port(),
                            "/memory?seconds=0.3&sample_kb=1", &status,
                            &body, &error))
      << error;
  stop.store(true);
  allocator.join();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.rfind("# ltee-profile ", 0), 0u);
  obsv::ProfileAnalysis analysis;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(body, &analysis, &error)) << error;
  EXPECT_TRUE(analysis.heap);
  EXPECT_EQ(analysis.sample_kb, 1u);
  held.clear();
  server.Stop();
}

TEST(HeapAnalysis, ParsesHeaderAndRendersTextAndJson) {
  const std::string text =
      "# ltee-profile heap=1 sample_kb=64 samples=3 dropped=1 "
      "duration_s=0.200 live_bytes=3145728 live_allocs=3 "
      "peak_rss_kb=102400\n"
      "# ltee-memtrack-span alpha live=2097152 cum=4194304 allocs=10\n"
      "# ltee-memtrack-span beta live=1048576 cum=1048576 allocs=2\n"
      "span:alpha;main;hot 2097152\n"
      "span:(none);main 1048576\n";

  obsv::ProfileAnalysis analysis;
  std::string error;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(text, &analysis, &error)) << error;
  EXPECT_EQ(analysis.samples, 3u);
  EXPECT_TRUE(analysis.heap);
  EXPECT_EQ(analysis.sample_kb, 64u);
  EXPECT_EQ(analysis.live_bytes, 3145728u);
  EXPECT_EQ(analysis.live_allocs, 3u);
  EXPECT_EQ(analysis.peak_rss_kb, 102400u);
  ASSERT_EQ(analysis.span_bytes.size(), 2u);
  EXPECT_EQ(analysis.span_bytes[0].span, "alpha");
  EXPECT_EQ(analysis.span_bytes[0].live_bytes, 2097152u);
  EXPECT_EQ(analysis.span_bytes[0].cum_bytes, 4194304u);
  EXPECT_EQ(analysis.span_bytes[0].allocs, 10u);

  const std::string report = obsv::HeapAnalysisToText(analysis);
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("hot"), std::string::npos);
  EXPECT_NE(report.find("peak RSS"), std::string::npos);

  const std::string json = obsv::HeapAnalysisToJson(analysis);
  ASSERT_TRUE(util::JsonIsValid(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"live_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"top_sites\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);

  // A CPU profile has no heap header.
  obsv::ProfileAnalysis cpu;
  ASSERT_TRUE(obsv::ParseCollapsedProfile(
      "# ltee-profile hz=99 samples=10\nspan:a;main 10\n", &cpu, &error));
  EXPECT_FALSE(cpu.heap);
}

// ---------------------------------------------------------------------------
// Reconciliation: the independent footprint estimates must agree with
// memtrack accounting, or one of the two is lying.

TEST(MemtrackReconciliation, RowClustererDenseCacheBytesAppearUnderItsSpan) {
  if (!obsv::MemTrackingSupported()) {
    GTEST_SKIP() << "allocator interposition compiled out";
  }
  const auto& ds = SharedDataset();
  auto dict = std::make_shared<util::TokenDictionary>();
  auto kb_index = pipeline::BuildKbLabelIndex(ds.kb, dict);
  webtable::PreparedCorpus prepared(ds.gs_corpus, dict);
  auto mapping = pipeline::GoldSchemaMapping(ds.gs_corpus, ds.gold);
  const auto& gs = ds.gold.front();
  rowcluster::ClassRowSet rows = rowcluster::BuildClassRowSet(
      prepared, mapping, gs.cls, ds.kb, kb_index);
  ASSERT_GE(rows.rows.size(), 2u);
  std::vector<int> gold_cluster(rows.rows.size());
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    gold_cluster[i] = gs.ClusterOfRow(rows.rows[i].ref);
  }

  rowcluster::RowClusterer clusterer;
  util::Rng rng(23);
  clusterer.Train(rows, gold_cluster, rng);

  obsv::SetMemTrackingEnabled(true);
  obsv::SetSpanAccountingEnabled(true);
  const obsv::SpanBytes before = SpanEntry("rowcluster.cluster");
  auto result = clusterer.Cluster(rows);
  EXPECT_GT(result.num_clusters, 0);
  const obsv::SpanBytes after = SpanEntry("rowcluster.cluster");
  obsv::SetSpanAccountingEnabled(false);
  obsv::SetMemTrackingEnabled(false);

  // The gauge is the clusterer's own estimate of its dense pair cache;
  // memtrack attributes that allocation (plus the clustering's working
  // memory) to the same span. One Cluster() call, so the span's
  // cumulative delta must cover the gauge at least once and stay within
  // a generous working-memory multiple of it.
  const double dense_bytes =
      GaugeValue("ltee.rowcluster.pair_cache.dense_bytes");
  ASSERT_GT(dense_bytes, 0.0);
  const uint64_t span_delta = after.cum_bytes - before.cum_bytes;
  EXPECT_GE(static_cast<double>(span_delta), dense_bytes);
  EXPECT_LE(static_cast<double>(span_delta), dense_bytes * 100.0)
      << "span charged far more than the dense cache estimate";
}

TEST(MemtrackReconciliation, LruCacheFootprintEstimateMatchesLiveDelta) {
  if (!obsv::MemTrackingSupported()) {
    GTEST_SKIP() << "allocator interposition compiled out";
  }
  obsv::SetMemTrackingEnabled(true);

  const obsv::MemtrackTotals before = obsv::GetMemtrackTotals();
  uint64_t live_with_cache = 0;
  size_t footprint = 0;
  {
    // Per-shard capacity 256 so no shard can evict regardless of how the
    // 256 keys hash across the 4 shards.
    serve::ShardedLruCache<std::string> cache(4, 256);
    // Values dominated by their 4 KB heap buffers — the footprint
    // estimate and the allocator's live delta must agree closely.
    for (int i = 0; i < 256; ++i) {
      cache.Put("entity:" + std::to_string(i) + ":v1",
                std::string(4096, 'x'));
    }
    EXPECT_EQ(cache.size(), 256u);
    footprint = cache.ApproxFootprintBytes();
    EXPECT_GE(footprint, 256u * 4096u);
    live_with_cache = obsv::GetMemtrackTotals().live_bytes;
  }
  const obsv::MemtrackTotals after = obsv::GetMemtrackTotals();
  obsv::SetMemTrackingEnabled(false);

  const uint64_t live_delta = live_with_cache - before.live_bytes;
  // Two independent estimates of the same bytes: within 2x both ways.
  EXPECT_GE(static_cast<double>(live_delta),
            static_cast<double>(footprint) * 0.5);
  EXPECT_LE(static_cast<double>(live_delta),
            static_cast<double>(footprint) * 2.0);
  // Destroying the cache returns live bytes to near the baseline.
  EXPECT_LT(after.live_bytes - before.live_bytes, 64u * 1024u);
}

}  // namespace
}  // namespace ltee
