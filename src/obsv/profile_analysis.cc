#include "obsv/profile_analysis.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "util/json.h"

namespace ltee::obsv {

namespace {

constexpr std::string_view kSpanLinePrefix = "# ltee-memtrack-span ";

/// Space-separated `key=value` tokens of `text`; other tokens are skipped.
std::vector<std::pair<std::string, std::string>> KeyValues(
    const std::string& text) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(' ', pos);
    if (end == std::string::npos) end = text.size();
    const size_t eq = text.find('=', pos);
    if (eq != std::string::npos && eq < end) {
      out.emplace_back(text.substr(pos, eq - pos),
                       text.substr(eq + 1, end - eq - 1));
    }
    pos = end + 1;
  }
  return out;
}

uint64_t ToU64(const std::string& value) {
  return std::strtoull(value.c_str(), nullptr, 10);
}

/// Reads the `# ltee-profile` header and the heap profile's
/// `# ltee-memtrack-span` lines; other comments are ignored.
void ParseCommentLine(const std::string& line, ProfileAnalysis* out) {
  if (line.rfind("# ltee-profile", 0) == 0) {
    for (const auto& [key, value] : KeyValues(line)) {
      if (key == "hz") {
        out->hz = static_cast<int>(std::strtol(value.c_str(), nullptr, 10));
      } else if (key == "samples") {
        out->samples = ToU64(value);
      } else if (key == "dropped") {
        out->dropped = ToU64(value);
      } else if (key == "duration_s") {
        out->duration_s = std::strtod(value.c_str(), nullptr);
      } else if (key == "heap") {
        out->heap = value == "1";
      } else if (key == "sample_kb") {
        out->sample_kb = static_cast<size_t>(ToU64(value));
      } else if (key == "live_bytes") {
        out->live_bytes = ToU64(value);
      } else if (key == "live_allocs") {
        out->live_allocs = ToU64(value);
      } else if (key == "peak_rss_kb") {
        out->peak_rss_kb = ToU64(value);
      }
    }
  } else if (line.rfind(kSpanLinePrefix, 0) == 0) {
    const size_t name_end = line.find(' ', kSpanLinePrefix.size());
    if (name_end == std::string::npos) return;
    SpanBytes span;
    span.span = line.substr(kSpanLinePrefix.size(),
                            name_end - kSpanLinePrefix.size());
    for (const auto& [key, value] : KeyValues(line.substr(name_end + 1))) {
      if (key == "live") {
        span.live_bytes = ToU64(value);
      } else if (key == "cum") {
        span.cum_bytes = ToU64(value);
      } else if (key == "allocs") {
        span.allocs = ToU64(value);
      }
    }
    out->span_bytes.push_back(std::move(span));
  }
}

/// Appends printf output of bounded size: numeric cells only. Names are
/// appended to the string directly, so none is ever cut.
__attribute__((format(printf, 2, 3))) void AppendF(std::string* out,
                                                   const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  *out += buf;
}

/// The wording of the tables both reports share. Stack weights are
/// samples in a CPU profile and live bytes in a heap profile.
struct ReportTerms {
  const char* frames_title;
  const char* frames_columns;
  const char* spans_title;
  const char* spans_columns;
  const char* frames_key;
  const char* self_key;
  const char* total_key;
};

constexpr ReportTerms kCpuTerms{
    "\nTop functions by self samples:\n",
    "        SELF       TOTAL   SELF%  NAME\n",
    "\nCPU by span:\n",
    "     SAMPLES     PCT  SPAN\n",
    "top_functions",
    "self",
    "total"};

constexpr ReportTerms kHeapTerms{
    "Top allocation sites by live sampled bytes:\n",
    "     SELF_KB    TOTAL_KB   SELF%  FUNCTION\n",
    "Live sampled bytes by span:\n",
    "     LIVE_KB     PCT  SPAN\n",
    "top_sites",
    "self_bytes",
    "total_bytes"};

std::string Kb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(bytes) / 1024.0);
  return buf;
}

/// A weight cell: a sample count, or KB of live heap.
std::string Cell(const ProfileAnalysis& analysis, uint64_t weight) {
  return analysis.heap ? Kb(weight) : std::to_string(weight);
}

/// Total stack weight — every line belongs to exactly one span.
double WeightDenominator(const ProfileAnalysis& analysis) {
  uint64_t weight = 0;
  for (const ProfileAnalysis::SpanStat& span : analysis.spans) {
    weight += span.samples;
  }
  return weight > 0 ? static_cast<double>(weight) : 1.0;
}

/// The top-N frames by self weight, stopping at the first frame that
/// has none.
size_t ShownFrames(const ProfileAnalysis& analysis, size_t top_n) {
  size_t shown = 0;
  while (shown < analysis.frames.size() && shown < top_n &&
         analysis.frames[shown].self > 0) {
    ++shown;
  }
  return shown;
}

void AppendFrameTable(std::string* out, const ProfileAnalysis& analysis,
                      const ReportTerms& terms, size_t top_n) {
  *out += terms.frames_title;
  *out += terms.frames_columns;
  const double denom = WeightDenominator(analysis);
  const size_t shown = ShownFrames(analysis, top_n);
  for (size_t f = 0; f < shown; ++f) {
    const ProfileAnalysis::FrameStat& frame = analysis.frames[f];
    AppendF(out, "  %10s  %10s  %5.1f%%  ",
            Cell(analysis, frame.self).c_str(),
            Cell(analysis, frame.total).c_str(),
            100.0 * static_cast<double>(frame.self) / denom);
    *out += frame.name;
    *out += '\n';
  }
  if (shown == 0) *out += "  (no samples)\n";
}

void AppendSpanTable(std::string* out, const ProfileAnalysis& analysis,
                     const ReportTerms& terms) {
  *out += terms.spans_title;
  *out += terms.spans_columns;
  for (const ProfileAnalysis::SpanStat& span : analysis.spans) {
    AppendF(out, "  %10s  %5.1f%%  ", Cell(analysis, span.samples).c_str(),
            span.pct);
    *out += span.name;
    *out += '\n';
  }
  if (analysis.spans.empty()) *out += "  (no samples)\n";
}

void AppendFramesJson(std::string* out, const ProfileAnalysis& analysis,
                      const ReportTerms& terms, size_t top_n) {
  *out += ",\"";
  *out += terms.frames_key;
  *out += "\":[";
  const double denom = WeightDenominator(analysis);
  const size_t shown = ShownFrames(analysis, top_n);
  for (size_t f = 0; f < shown; ++f) {
    const ProfileAnalysis::FrameStat& frame = analysis.frames[f];
    if (f > 0) *out += ',';
    *out += "{\"name\":";
    *out += util::JsonQuote(frame.name);
    *out += ",\"";
    *out += terms.self_key;
    *out += "\":";
    *out += std::to_string(frame.self);
    *out += ",\"";
    *out += terms.total_key;
    *out += "\":";
    *out += std::to_string(frame.total);
    *out += ",\"self_pct\":";
    util::AppendJsonNumber(out,
                           100.0 * static_cast<double>(frame.self) / denom);
    *out += '}';
  }
  *out += ']';
}

}  // namespace

bool ParseCollapsedProfile(const std::string& text, ProfileAnalysis* out,
                           std::string* error) {
  if (out == nullptr) return false;
  *out = ProfileAnalysis();
  std::map<std::string, ProfileAnalysis::FrameStat> frames;
  std::map<std::string, uint64_t> spans;
  uint64_t line_samples = 0;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      ParseCommentLine(line, out);
      continue;
    }
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": missing count";
      }
      return false;
    }
    char* count_end = nullptr;
    const uint64_t count =
        std::strtoull(line.c_str() + space + 1, &count_end, 10);
    if (count_end == nullptr || *count_end != '\0' || count == 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": bad count";
      }
      return false;
    }
    // Split the stack body on ';' — first frame may be the span tag.
    std::vector<std::string> stack;
    size_t fpos = 0;
    const std::string body = line.substr(0, space);
    while (fpos <= body.size()) {
      size_t fend = body.find(';', fpos);
      if (fend == std::string::npos) fend = body.size();
      stack.push_back(body.substr(fpos, fend - fpos));
      fpos = fend + 1;
    }
    if (stack.empty() || stack.front().empty()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": empty stack";
      }
      return false;
    }
    size_t first_frame = 0;
    if (stack.front().rfind("span:", 0) == 0) {
      spans[stack.front().substr(5)] += count;
      first_frame = 1;
    } else {
      spans["(none)"] += count;
    }
    line_samples += count;
    if (first_frame >= stack.size()) continue;  // span tag only, no frames
    std::set<std::string> seen;
    for (size_t f = first_frame; f < stack.size(); ++f) {
      ProfileAnalysis::FrameStat& stat = frames[stack[f]];
      if (stat.name.empty()) stat.name = stack[f];
      // A frame recursing within one stack still gets its total counted
      // once.
      if (seen.insert(stack[f]).second) stat.total += count;
    }
    frames[stack.back()].self += count;
  }
  if (out->samples == 0) out->samples = line_samples;
  const uint64_t denom = line_samples > 0 ? line_samples : 1;
  out->frames.reserve(frames.size());
  for (auto& [name, stat] : frames) out->frames.push_back(std::move(stat));
  std::sort(out->frames.begin(), out->frames.end(),
            [](const ProfileAnalysis::FrameStat& a,
               const ProfileAnalysis::FrameStat& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.name < b.name;
            });
  out->spans.reserve(spans.size());
  for (const auto& [name, samples] : spans) {
    ProfileAnalysis::SpanStat stat;
    stat.name = name;
    stat.samples = samples;
    stat.pct = 100.0 * static_cast<double>(samples) /
               static_cast<double>(denom);
    out->spans.push_back(std::move(stat));
  }
  std::sort(out->spans.begin(), out->spans.end(),
            [](const ProfileAnalysis::SpanStat& a,
               const ProfileAnalysis::SpanStat& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.name < b.name;
            });
  return true;
}

std::string ProfileAnalysisToText(const ProfileAnalysis& analysis,
                                  size_t top_n) {
  std::string out;
  AppendF(&out, "Profile: %llu samples @ %d Hz over %.2f s (%llu dropped)\n",
          static_cast<unsigned long long>(analysis.samples), analysis.hz,
          analysis.duration_s,
          static_cast<unsigned long long>(analysis.dropped));
  AppendFrameTable(&out, analysis, kCpuTerms, top_n);
  AppendSpanTable(&out, analysis, kCpuTerms);
  return out;
}

std::string ProfileAnalysisToJson(const ProfileAnalysis& analysis,
                                  size_t top_n) {
  std::string out = "{\"hz\":";
  out += std::to_string(analysis.hz);
  out += ",\"samples\":";
  out += std::to_string(analysis.samples);
  out += ",\"dropped\":";
  out += std::to_string(analysis.dropped);
  out += ",\"duration_s\":";
  util::AppendJsonNumber(&out, analysis.duration_s);
  AppendFramesJson(&out, analysis, kCpuTerms, top_n);
  out += ",\"spans\":[";
  for (size_t s = 0; s < analysis.spans.size(); ++s) {
    if (s > 0) out += ',';
    out += "{\"name\":";
    out += util::JsonQuote(analysis.spans[s].name);
    out += ",\"samples\":";
    out += std::to_string(analysis.spans[s].samples);
    out += ",\"pct\":";
    util::AppendJsonNumber(&out, analysis.spans[s].pct);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string HeapAnalysisToText(const ProfileAnalysis& analysis,
                               size_t top_n) {
  std::string out;
  AppendF(&out,
          "Heap profile: %llu sampled allocations (~1 per %zu KB), "
          "%llu dropped, %.3f s\n",
          static_cast<unsigned long long>(analysis.samples),
          analysis.sample_kb,
          static_cast<unsigned long long>(analysis.dropped),
          analysis.duration_s);
  AppendF(&out,
          "Live (tracked): %.1f MB in %llu allocations; peak RSS %.1f MB\n",
          static_cast<double>(analysis.live_bytes) / (1024.0 * 1024.0),
          static_cast<unsigned long long>(analysis.live_allocs),
          static_cast<double>(analysis.peak_rss_kb) / 1024.0);
  if (!analysis.span_bytes.empty()) {
    out += "Bytes by span (live / cumulative):\n";
    out += "      LIVE_KB        CUM_KB    ALLOCS  SPAN\n";
    for (const SpanBytes& span : analysis.span_bytes) {
      AppendF(&out, "  %11s %13s %9llu  ", Kb(span.live_bytes).c_str(),
              Kb(span.cum_bytes).c_str(),
              static_cast<unsigned long long>(span.allocs));
      out += span.span;
      out += '\n';
    }
  }
  AppendFrameTable(&out, analysis, kHeapTerms, top_n);
  AppendSpanTable(&out, analysis, kHeapTerms);
  return out;
}

std::string HeapAnalysisToJson(const ProfileAnalysis& analysis,
                               size_t top_n) {
  std::string out = "{\"sample_kb\":";
  out += std::to_string(analysis.sample_kb);
  out += ",\"samples\":";
  out += std::to_string(analysis.samples);
  out += ",\"dropped\":";
  out += std::to_string(analysis.dropped);
  out += ",\"duration_s\":";
  util::AppendJsonNumber(&out, analysis.duration_s);
  out += ",\"live_bytes\":";
  out += std::to_string(analysis.live_bytes);
  out += ",\"live_allocs\":";
  out += std::to_string(analysis.live_allocs);
  out += ",\"peak_rss_kb\":";
  out += std::to_string(analysis.peak_rss_kb);
  out += ",\"spans\":[";
  for (size_t s = 0; s < analysis.span_bytes.size(); ++s) {
    const SpanBytes& span = analysis.span_bytes[s];
    if (s > 0) out += ',';
    out += "{\"name\":";
    out += util::JsonQuote(span.span);
    out += ",\"live_bytes\":";
    out += std::to_string(span.live_bytes);
    out += ",\"cum_bytes\":";
    out += std::to_string(span.cum_bytes);
    out += ",\"allocs\":";
    out += std::to_string(span.allocs);
    out += '}';
  }
  out += ']';
  AppendFramesJson(&out, analysis, kHeapTerms, top_n);
  out += '}';
  return out;
}

}  // namespace ltee::obsv
