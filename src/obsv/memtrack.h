#ifndef LTEE_OBSV_MEMTRACK_H_
#define LTEE_OBSV_MEMTRACK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obsv/sampled_session.h"

namespace ltee::obsv {

/// In-process memory observability, the heap-side twin of the sampling
/// CPU profiler (obsv::profiler). Every `operator new`/`operator delete`
/// in the process is interposed with a 16-byte allocation header; while
/// tracking is enabled (the LTEE_MEMTRACK environment variable, the
/// `ltee_cli run --memtrack` flag, or SetMemTrackingEnabled) each
/// allocation updates relaxed-atomic live/peak/cumulative byte and
/// allocation counters.
///
/// Span-attributed accounting is a second, separately-switched level:
/// while enabled (SetSpanAccountingEnabled, or automatically for the
/// duration of a heap-profiler session) each allocation additionally
/// attributes its bytes to the calling thread's innermost open
/// util::trace span via the signal-safe span mirrors. Keeping it out of
/// the counters-only mode is what holds that mode's overhead inside the
/// gated budget — attribution roughly triples the per-allocation cost.
///
/// On top of the counters, a heap-profiler session samples
/// every ~N allocated bytes, capturing the allocation stack
/// (util::CaptureStack) into the shared lock-free sample rings;
/// collection exports a flamegraph.pl-compatible collapsed heap profile
/// (`span:NAME;frames... LIVE_BYTES`) whose header reuses the
/// `# ltee-profile` prefix so ParseCollapsedProfile reads both kinds.
///
/// Re-entrancy and safety rules (also in DESIGN.md):
///  - The hooks never allocate, never lock, and never recurse: a
///    thread-local guard makes any nested allocation (symbolizer warm-up,
///    sample-ring allocation) bypass accounting while still getting a
///    header, so every pointer freed later is interpretable.
///  - The header is unconditional; enabling/disabling tracking mid-run
///    can never mismatch an allocation with its free (a counted bit in
///    the header keeps the live counters exact across transitions).
///  - Under AddressSanitizer (LTEE_SANITIZE) the interposition is
///    compiled out entirely — ASan owns malloc — and
///    MemTrackingSupported() reports false.

/// True when the allocator interposition is compiled in (Linux, no
/// sanitizer). When false every other call is a cheap no-op and the
/// counters read zero.
bool MemTrackingSupported();

/// Runtime switch for the counters (totals and per-stage deltas only —
/// no span attribution). Also settable at process start via
/// LTEE_MEMTRACK=1.
void SetMemTrackingEnabled(bool enabled);
bool MemTrackingEnabled();

/// Runtime switch for span-attributed accounting; needs the counters on
/// to take effect. Enabling also turns on util::trace span tracking
/// (reference counted) so the allocation hook sees span names. Heap
/// profiler sessions enable this automatically for their duration —
/// call it directly only to read MemtrackSpanBytes without a session.
void SetSpanAccountingEnabled(bool enabled);
bool SpanAccountingEnabled();

/// Process-wide allocation counters. Live/peak cover only allocations
/// made while tracking was enabled (the counted bit keeps frees
/// symmetric); cumulative counters are monotone since first enable.
struct MemtrackTotals {
  uint64_t live_bytes = 0;
  uint64_t live_allocs = 0;
  uint64_t peak_live_bytes = 0;
  uint64_t cum_bytes = 0;
  uint64_t cum_allocs = 0;
};
MemtrackTotals GetMemtrackTotals();

/// Per-span byte accounting from the fixed lock-free span table.
struct SpanBytes {
  std::string span;
  /// Still-live bytes first allocated under this span (floor 0).
  uint64_t live_bytes = 0;
  /// All bytes ever allocated under this span while tracking.
  uint64_t cum_bytes = 0;
  uint64_t allocs = 0;
};
/// Sorted by cumulative bytes descending.
std::vector<SpanBytes> MemtrackSpanBytes();

/// Peak resident set size of this process in bytes: /proc/self/status
/// VmHWM, falling back to getrusage(ru_maxrss). Zero only when both
/// sources fail. Works with or without memtrack support.
uint64_t ReadPeakRssBytes();

/// The heap-profiler session (sampled allocation stacks). Its rate is
/// the number of allocated bytes between samples, per thread, clamped to
/// [1, 1 << 30]; small values sample every allocation — what the tests
/// use for determinism. While the session is open, tracking (if off) and
/// span accounting are on. After Stop, sampled live bytes keep
/// decrementing as their allocations are freed, so Collect reports
/// current liveness: a `# ltee-profile heap=1 sample_kb=... samples=...
/// dropped=... duration_s=... live_bytes=... live_allocs=...
/// peak_rss_kb=...` header, one `# ltee-memtrack-span NAME live=B cum=B
/// allocs=N` comment line per attributed span, then collapsed stack
/// lines weighted by LIVE bytes (fully-freed samples are omitted).
SampledSession& HeapProfiler();

inline constexpr int64_t kDefaultHeapSampleBytes = 64 * 1024;

}  // namespace ltee::obsv

#endif  // LTEE_OBSV_MEMTRACK_H_
