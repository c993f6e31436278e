#include "obsv/crash_flush.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>

#include "obsv/access_log.h"
#include "obsv/memtrack.h"
#include "obsv/profiler.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ltee::obsv {

namespace {

struct FlushState {
  std::mutex mu;
  bool armed = false;
  bool installed = false;
  std::string trace_path;
  std::string metrics_path;
  std::string access_log_path;
  std::string profile_path;
  std::string heap_profile_path;
  std::terminate_handler previous_terminate = nullptr;
};

FlushState& State() {
  static FlushState* state = new FlushState();
  return *state;
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "crash flush: cannot write %s\n", path.c_str());
    return;
  }
  out << body << "\n";
}

/// Stops `session` and writes whatever it sampled — the partial profile
/// of a crashed run still points at the code that burned the CPU or held
/// the bytes. False when `path` is empty or nothing was sampled.
bool FlushSession(const std::string& path, SampledSession& session,
                  const char* what) {
  if (path.empty() || !(session.Active() || session.Stats().samples > 0)) {
    return false;
  }
  WriteFile(path, session.Collect());
  std::fprintf(stderr, "crash flush: partial %s written to %s\n", what,
               path.c_str());
  return true;
}

[[noreturn]] void TerminateHandler() {
  CrashFlushNow();
  std::terminate_handler previous;
  {
    std::lock_guard<std::mutex> lock(State().mu);
    previous = State().previous_terminate;
  }
  if (previous != nullptr) previous();
  std::abort();
}

void AtExitHandler() { CrashFlushNow(); }

}  // namespace

void ArmCrashFlush(std::string trace_path, std::string metrics_path,
                   std::string access_log_path, std::string profile_path,
                   std::string heap_profile_path) {
  FlushState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.trace_path = std::move(trace_path);
  state.metrics_path = std::move(metrics_path);
  state.access_log_path = std::move(access_log_path);
  state.profile_path = std::move(profile_path);
  state.heap_profile_path = std::move(heap_profile_path);
  state.armed = true;
  if (!state.installed) {
    state.installed = true;
    state.previous_terminate = std::set_terminate(&TerminateHandler);
    std::atexit(&AtExitHandler);
  }
}

void DisarmCrashFlush() {
  FlushState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.armed = false;
}

bool CrashFlushNow() {
  std::string trace_path, metrics_path, access_log_path, profile_path;
  std::string heap_profile_path;
  {
    FlushState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.armed) return false;
    state.armed = false;  // write once, even if terminate + atexit both fire
    trace_path = state.trace_path;
    metrics_path = state.metrics_path;
    access_log_path = state.access_log_path;
    profile_path = state.profile_path;
    heap_profile_path = state.heap_profile_path;
  }
  if (!trace_path.empty()) {
    WriteFile(trace_path, util::trace::ExportChromeTrace());
    std::fprintf(stderr, "crash flush: trace written to %s\n",
                 trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    // RunReport-shaped so report_diff and other consumers parse it; the
    // aborted flag distinguishes it from a completed run's report.
    std::string body =
        "{\"total_seconds\":0,\"stages\":[],\"classes\":[],"
        "\"aborted\":true,\"metrics\":";
    body += util::Metrics().Snapshot().ToJson();
    body += "}";
    WriteFile(metrics_path, body);
    std::fprintf(stderr, "crash flush: metrics written to %s\n",
                 metrics_path.c_str());
  }
  if (!access_log_path.empty()) {
    // The last requests before the crash — the ones most likely to have
    // caused it — as JSON lines, oldest first.
    WriteFile(access_log_path, GlobalAccessLog().ToJsonLines());
    std::fprintf(stderr, "crash flush: access log written to %s\n",
                 access_log_path.c_str());
  }
  const bool profile_written =
      FlushSession(profile_path, CpuProfiler(), "profile");
  const bool heap_profile_written =
      FlushSession(heap_profile_path, HeapProfiler(), "heap profile");
  return !trace_path.empty() || !metrics_path.empty() ||
         !access_log_path.empty() || profile_written ||
         heap_profile_written;
}

}  // namespace ltee::obsv
