#ifndef LTEE_OBSV_PROFILE_ANALYSIS_H_
#define LTEE_OBSV_PROFILE_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obsv/memtrack.h"

namespace ltee::obsv {

/// Parsed + aggregated view of a collapsed profile — a CPU profile
/// (obsv/profiler) or a heap profile (obsv/memtrack) — shared by
/// `ltee_cli analyze-profile` / `analyze-memory`, `ltee_top`, and tests.
/// Stack weights are samples in a CPU profile and live bytes in a heap
/// profile.
struct ProfileAnalysis {
  int hz = 0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  double duration_s = 0.0;

  /// Heap profiles only: set by the `heap=1` header key, with the
  /// header's sampling period and tracked totals.
  bool heap = false;
  size_t sample_kb = 0;
  uint64_t live_bytes = 0;
  uint64_t live_allocs = 0;
  uint64_t peak_rss_kb = 0;
  /// Parsed `# ltee-memtrack-span` lines, order preserved.
  std::vector<SpanBytes> span_bytes;

  struct FrameStat {
    std::string name;
    /// Weight with this frame at the leaf (the CPU was in it, or it
    /// allocated the bytes).
    uint64_t self = 0;
    /// Weight with this frame anywhere on the stack.
    uint64_t total = 0;
  };
  /// Every distinct frame, sorted by self descending (total breaks ties).
  std::vector<FrameStat> frames;

  struct SpanStat {
    std::string name;
    uint64_t samples = 0;
    /// Share of all stack weight, in percent.
    double pct = 0.0;
  };
  /// Per-span attribution, sorted by weight descending.
  std::vector<SpanStat> spans;
};

/// Parses collapsed-stack text as written by a profiler session's
/// Collect. Unknown `#` headers are ignored; a malformed stack line
/// fails the parse. An empty profile (headers only) parses successfully
/// with zero frames.
bool ParseCollapsedProfile(const std::string& text, ProfileAnalysis* out,
                           std::string* error);

/// Human-readable CPU report: capture header, top-N functions by self
/// samples, and the per-span CPU breakdown.
std::string ProfileAnalysisToText(const ProfileAnalysis& analysis,
                                  size_t top_n = 20);

/// Same content as one JSON object: {"hz","samples","dropped",
/// "duration_s","top_functions":[{name,self,total,self_pct}],
/// "spans":[{name,samples,pct}]}.
std::string ProfileAnalysisToJson(const ProfileAnalysis& analysis,
                                  size_t top_n = 20);

/// Human-readable heap report: totals, per-span live/cumulative bytes,
/// the top-N allocation sites by live sampled bytes, and live sampled
/// bytes per span.
std::string HeapAnalysisToText(const ProfileAnalysis& analysis,
                               size_t top_n = 20);

/// Same content as one JSON object: {"sample_kb","samples","dropped",
/// "duration_s","live_bytes","live_allocs","peak_rss_kb",
/// "spans":[{name,live_bytes,cum_bytes,allocs}],
/// "top_sites":[{name,self_bytes,total_bytes,self_pct}]}.
std::string HeapAnalysisToJson(const ProfileAnalysis& analysis,
                               size_t top_n = 20);

}  // namespace ltee::obsv

#endif  // LTEE_OBSV_PROFILE_ANALYSIS_H_
