#include "obsv/profiler.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/stack_capture.h"
#include "util/trace.h"

#if defined(__linux__)
#define LTEE_HAS_SIGPROF 1
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <unistd.h>
#else
#define LTEE_HAS_SIGPROF 0
#endif

namespace ltee::obsv {

namespace {

/// One raw sample, written entirely inside the SIGPROF handler. POD —
/// no constructors, no allocation.
struct RawSample {
  void* frames[util::kMaxStackDepth];
  int32_t depth;
  char span[util::trace::kTrackedSpanNameLen];
  char trace_id[33];
};

constinit SampleRings<RawSample> g_rings;
/// Handler gate: the only state the handler consults before touching
/// anything else.
std::atomic<bool> g_sampling{false};

#if LTEE_HAS_SIGPROF

struct sigaction g_old_action;

void ProfSignalHandler(int /*signo*/, siginfo_t* /*info*/, void* /*ctx*/) {
  if (!g_sampling.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const long tid = ::syscall(SYS_gettid);
  const unsigned shard = static_cast<unsigned long>(tid) % kSampleShards;
  uint32_t index = 0;
  if (RawSample* sample = g_rings.Claim(shard, &index)) {
    // Skip 2 innermost frames: this handler and the kernel signal
    // trampoline.
    sample->depth =
        util::CaptureStack(sample->frames, util::kMaxStackDepth, 2);
    util::trace::CurrentSpanNameForSignal(sample->span, sizeof(sample->span));
    util::trace::CurrentTraceIdForSignal(sample->trace_id,
                                         sizeof(sample->trace_id));
    g_rings.Publish(shard, index);
  }
  errno = saved_errno;
}

#endif  // LTEE_HAS_SIGPROF

bool Arm(int64_t hz, std::string* error) {
#if !LTEE_HAS_SIGPROF
  (void)hz;
  if (error != nullptr) *error = "profiler unsupported on this platform";
  return false;
#else
  if (!util::StackCaptureSupported()) {
    if (error != nullptr) *error = "stack capture unsupported";
    return false;
  }
  util::WarmUpStackCapture();
  g_rings.Prepare();
  util::trace::SetSpanTrackingEnabled(true);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = &ProfSignalHandler;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, &g_old_action) != 0) {
    util::trace::SetSpanTrackingEnabled(false);
    if (error != nullptr) *error = "sigaction(SIGPROF) failed";
    return false;
  }
  g_sampling.store(true, std::memory_order_release);
  itimerval interval;
  std::memset(&interval, 0, sizeof(interval));
  const long usec = std::max(1000000L / static_cast<long>(hz), 1L);
  interval.it_interval.tv_sec = usec / 1000000;
  interval.it_interval.tv_usec = usec % 1000000;
  interval.it_value = interval.it_interval;
  if (::setitimer(ITIMER_PROF, &interval, nullptr) != 0) {
    g_sampling.store(false, std::memory_order_relaxed);
    ::sigaction(SIGPROF, &g_old_action, nullptr);
    util::trace::SetSpanTrackingEnabled(false);
    if (error != nullptr) *error = "setitimer(ITIMER_PROF) failed";
    return false;
  }
  return true;
#endif
}

void Disarm() {
#if LTEE_HAS_SIGPROF
  itimerval disarm;
  std::memset(&disarm, 0, sizeof(disarm));
  ::setitimer(ITIMER_PROF, &disarm, nullptr);
  g_sampling.store(false, std::memory_order_relaxed);
  // Let any in-flight handler on another thread finish before restoring
  // the old disposition (a handler takes microseconds; this is belt and
  // braces, not synchronization the rings need).
  ::usleep(2000);
  ::sigaction(SIGPROF, &g_old_action, nullptr);
#endif
  util::trace::SetSpanTrackingEnabled(false);
}

std::string Collect(const SessionStats& stats) {
  CollapsedStackWriter writer;
  uint64_t samples = 0;
  uint64_t request_samples = 0;
  g_rings.ForEachReady([&](const RawSample& sample) {
    ++samples;
    if (sample.trace_id[0] != '\0') ++request_samples;
    writer.Add(sample.span, sample.frames, sample.depth, 1);
  });
  char header[160];
  std::snprintf(header, sizeof(header),
                "# ltee-profile hz=%d samples=%llu dropped=%llu "
                "duration_s=%.3f req_samples=%llu\n",
                static_cast<int>(stats.rate),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(stats.dropped),
                stats.duration_s,
                static_cast<unsigned long long>(request_samples));
  std::string out = header;
  writer.AppendTo(&out);
  return out;
}

constinit SampledSession g_session{SessionHooks{
    "profile", "ltee.profiler", 1, 1000, &g_rings, &Arm, &Disarm, &Collect,
    nullptr}};

}  // namespace

SampledSession& CpuProfiler() { return g_session; }

}  // namespace ltee::obsv
