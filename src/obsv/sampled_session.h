#ifndef LTEE_OBSV_SAMPLED_SESSION_H_
#define LTEE_OBSV_SAMPLED_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>

namespace ltee::obsv {

/// The capture core both sampling profilers share: the CPU profiler
/// (obsv/profiler, SIGPROF) and the heap profiler (obsv/memtrack,
/// allocation hook) each fill SampleRings from a context that must not
/// lock or allocate, and drive one SampledSession whose collect hook
/// turns the rings into collapsed-stack text via CollapsedStackWriter.

/// Samples are sharded by kernel tid so concurrent writers rarely share a
/// cache line; the fetch_add slot claim keeps even a collision safe.
inline constexpr unsigned kSampleShards = 8;

/// Slots per shard. A full shard counts further samples as dropped —
/// writers never block and never reallocate. Holds ~2.5 minutes of
/// 99 Hz CPU samples per shard.
inline constexpr size_t kSampleRingCapacity = 16384;

/// The sample-layout-independent half of SampleRings: per-shard claim
/// heads and ready flags plus the drop count, which is all the session
/// needs to count and clear a capture.
class SampleRingIndex {
 public:
  /// Claimed slots across all shards (each shard capped at capacity).
  uint64_t Count() const;
  /// Samples lost to full (or not yet allocated) shards since Clear.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  /// Empties every shard and zeroes the drop count. Normal context only,
  /// with no writer armed.
  void Clear();

 protected:
  struct Shard {
    std::atomic<uint64_t> head{0};
    std::atomic<std::atomic<uint8_t>*> ready{nullptr};
  };

  /// Claimed slots of one shard, capped at capacity.
  size_t Used(unsigned shard) const;

  bool IsReady(unsigned shard, size_t index) const {
    const std::atomic<uint8_t>* ready =
        shards_[shard].ready.load(std::memory_order_acquire);
    return ready != nullptr && index < kSampleRingCapacity &&
           ready[index].load(std::memory_order_acquire) != 0;
  }

  /// Allocates the ready flags on first use. Never freed: a writer that
  /// raced a session boundary must never chase a freed pointer.
  void AllocateReadyFlags();

  Shard shards_[kSampleShards];
  std::atomic<uint64_t> dropped_{0};
};

/// Tid-sharded lock-free sample rings. Writers claim a slot, fill it,
/// then publish it with a release store on its ready flag; the collector
/// reads only published slots, after sampling has stopped. The arrays
/// are allocated on the first Prepare and deliberately leaked.
template <typename Sample>
class SampleRings : public SampleRingIndex {
  // `new Sample[kSampleRingCapacity]` must leave the rings' pages
  // untouched until a writer claims a slot.
  static_assert(std::is_trivially_default_constructible_v<Sample>);

 public:
  /// Allocates the arrays on first use and clears the rings. Normal
  /// context, before the writers are armed.
  void Prepare() {
    if (slots_[0].load(std::memory_order_relaxed) == nullptr) {
      // Ready flags first: a writer that sees a shard's slots sees its
      // flags too.
      AllocateReadyFlags();
      for (auto& slots : slots_) {
        slots.store(new Sample[kSampleRingCapacity],
                    std::memory_order_release);
      }
    }
    Clear();
  }

  /// Claims the next slot of `shard` (the writer's tid % kSampleShards)
  /// for the caller to fill and Publish. Async-signal-safe: one
  /// fetch_add, no lock, no allocation. nullptr, counted as a drop, when
  /// the shard is full or not yet allocated.
  Sample* Claim(unsigned shard, uint32_t* index) {
    const uint64_t idx =
        shards_[shard].head.fetch_add(1, std::memory_order_relaxed);
    Sample* slots = slots_[shard].load(std::memory_order_acquire);
    if (idx >= kSampleRingCapacity || slots == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    *index = static_cast<uint32_t>(idx);
    return &slots[idx];
  }

  void Publish(unsigned shard, uint32_t index) {
    shards_[shard].ready.load(std::memory_order_relaxed)[index].store(
        1, std::memory_order_release);
  }

  /// The slot if it has been published, else nullptr. Lock-free, for the
  /// heap profiler's free path.
  Sample* Published(unsigned shard, uint32_t index) {
    if (!IsReady(shard, index)) return nullptr;
    return &slots_[shard].load(std::memory_order_acquire)[index];
  }

  /// Calls `fn(const Sample&)` for every published slot.
  template <typename Fn>
  void ForEachReady(Fn&& fn) const {
    for (unsigned s = 0; s < kSampleShards; ++s) {
      const size_t used = Used(s);
      for (size_t i = 0; i < used; ++i) {
        if (IsReady(s, i)) fn(slots_[s].load(std::memory_order_acquire)[i]);
      }
    }
  }

 private:
  std::atomic<Sample*> slots_[kSampleShards] = {};
};

/// Counters of the current (or just-stopped) session.
struct SessionStats {
  uint64_t samples = 0;
  uint64_t dropped = 0;
  double duration_s = 0.0;
  /// The clamped value the session started with: samples per second of
  /// CPU time for the CPU profiler, allocated bytes between samples for
  /// the heap profiler. 0 after Reset.
  int64_t rate = 0;
};

/// Lifetime totals across every session of one profiler (feeds /stats).
struct CaptureTotals {
  uint64_t captures = 0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
};

/// What a profiler plugs into its session. Every hook runs under the
/// session lock, from normal context.
struct SessionHooks {
  /// "profile" or "heap profile", for the busy error.
  const char* name;
  /// Counter prefix: `<prefix>.captures`, `.samples`, `.dropped`.
  const char* metric_prefix;
  int64_t min_rate;
  int64_t max_rate;
  SampleRingIndex* rings;
  /// Prepares the rings and arms sampling at `rate` (already clamped).
  /// False, with `error`, leaves the session closed.
  bool (*arm)(int64_t rate, std::string* error);
  /// Stops new samples from being written.
  void (*disarm)();
  /// Serializes the stopped session's samples as collapsed-stack text.
  std::string (*collect)(const SessionStats& stats);
  /// Profiler-specific state to drop at Reset; may be null.
  void (*reset)();
};

/// One capture session per profiler per process:
/// Start → Stop → Collect → Reset. The session stays open from Start
/// until Reset, so a second Start or Capture during it — even while an
/// export of the stopped session is in progress — is refused, never
/// queued: two interleaved captures would share rings and lie twice.
class SampledSession {
 public:
  constexpr explicit SampledSession(SessionHooks hooks) : hooks_(hooks) {}
  SampledSession(const SampledSession&) = delete;
  SampledSession& operator=(const SampledSession&) = delete;

  /// Opens the session and arms sampling at `rate`, clamped to the
  /// profiler's range. False, with `error`, when a session is already
  /// open or the platform cannot sample.
  bool Start(int64_t rate, std::string* error);
  /// Disarms sampling; the samples stay for Collect. Idempotent.
  void Stop();
  /// True between a successful Start and the matching Stop.
  bool Active();
  SessionStats Stats();
  CaptureTotals Totals() const;
  /// Stops (if needed) and serializes the collected samples. Callable
  /// after a crash from the crash-flush path.
  std::string Collect();
  /// Drops the samples and per-session counters and closes the session
  /// so a new Start succeeds. Lifetime totals survive.
  void Reset();
  /// Bounded on-demand capture: Start at `rate`, sleep `seconds` of wall
  /// time (clamped to [0.01, 120]), then Collect and Reset under one
  /// lock. Refused like Start when a session is open — the endpoints map
  /// that to 503.
  bool Capture(double seconds, int64_t rate, std::string* collapsed,
               std::string* error);

 private:
  void StopLocked();
  std::string CollectLocked();
  void ResetLocked();
  SessionStats StatsLocked() const;

  const SessionHooks hooks_;
  std::mutex mu_;
  bool open_ = false;
  bool armed_ = false;
  int64_t rate_ = 0;
  std::chrono::steady_clock::time_point started_at_{};
  double duration_s_ = 0.0;
  std::atomic<uint64_t> total_captures_{0};
  std::atomic<uint64_t> total_samples_{0};
  std::atomic<uint64_t> total_dropped_{0};
};

/// Collapsed-format escaping shared by every profile exporter: strips
/// the parameter list from demangled C++ names (keeping "operator()"'s
/// parens) and replaces the two reserved characters — ';' separates
/// frames, ' ' separates the trailing count.
std::string CollapsedFrameName(const std::string& raw);
std::string CollapsedSpanName(const char* span);

/// Aggregates sampled stacks into flamegraph.pl-compatible lines
/// `span:NAME;root_frame;...;leaf_frame WEIGHT` (samples with no open
/// span use `span:(none)`), summing the weights of identical stacks.
/// Each distinct pc is symbolized once. Allocates: collect time only.
class CollapsedStackWriter {
 public:
  /// `drop_leaf` (may be null) names frames scrubbed off the leaf end of
  /// every stack, matched on the raw symbol — the heap profiler's
  /// allocator frames.
  explicit CollapsedStackWriter(
      bool (*drop_leaf)(const std::string& symbol) = nullptr)
      : drop_leaf_(drop_leaf) {}

  /// Adds one stack, leaf-first as util::CaptureStack stores it.
  void Add(const char* span, void* const* frames, int depth,
           uint64_t weight);

  /// Appends the lines sorted by stack text, each `STACK WEIGHT\n`.
  void AppendTo(std::string* out) const;

 private:
  struct Symbol {
    std::string name;
    bool dropped_leaf = false;
  };
  const Symbol& Symbolize(const void* pc);

  bool (*drop_leaf_)(const std::string& symbol);
  std::unordered_map<const void*, Symbol> symbols_;
  std::map<std::string, uint64_t> lines_;
};

}  // namespace ltee::obsv

#endif  // LTEE_OBSV_SAMPLED_SESSION_H_
