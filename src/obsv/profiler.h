#ifndef LTEE_OBSV_PROFILER_H_
#define LTEE_OBSV_PROFILER_H_

#include "obsv/sampled_session.h"

namespace ltee::obsv {

/// In-process sampling CPU profiler. A POSIX interval timer
/// (ITIMER_PROF) delivers SIGPROF on process CPU time; the
/// async-signal-safe handler captures the interrupted thread's raw stack
/// (util::CaptureStack) plus its innermost tracked span name and request
/// trace id (the signal-safe mirrors in util::trace) into the shared
/// lock-free sample rings. Symbolization, aggregation, and all
/// allocation happen only at collect time, after sampling has stopped.
///
/// The session's rate is samples per second of process CPU time,
/// clamped to [1, 1000]. While it is armed, util::trace span tracking is
/// on so samples carry span names. Collect yields a
/// `# ltee-profile hz=.. samples=.. dropped=.. duration_s=.. req_samples=..`
/// header followed by collapsed stack lines weighted by sample count.
SampledSession& CpuProfiler();

inline constexpr int kDefaultProfilerHz = 99;

}  // namespace ltee::obsv

#endif  // LTEE_OBSV_PROFILER_H_
