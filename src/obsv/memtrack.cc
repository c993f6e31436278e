#include "obsv/memtrack.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/stack_capture.h"
#include "util/trace.h"

// The allocator interposition is Linux-only (tid sharding, /proc) and
// must stay out of sanitizer builds: ASan interposes malloc itself and
// linking a second operator new replacement would fight its shadow
// accounting.
#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(LTEE_MEMTRACK_DISABLE)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define LTEE_MEMTRACK_INTERPOSE 0
#else
#define LTEE_MEMTRACK_INTERPOSE 1
#endif
#else
#define LTEE_MEMTRACK_INTERPOSE 1
#endif
#else
#define LTEE_MEMTRACK_INTERPOSE 0
#endif

#if LTEE_MEMTRACK_INTERPOSE
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#include <sys/resource.h>
#endif

namespace ltee::obsv {

namespace {

// ---------------------------------------------------------------------------
// Allocation header. Prepended to EVERY new-ed block, tracking on or
// off, so a pointer allocated in one tracking state frees correctly in
// any other. 16 bytes keeps the default operator-new alignment intact
// (base from malloc is 16-aligned, so base + 16 is too).
//
// size_and_flags: bits 0..47 user size, bits 48..57 span-table slot
// (kNoSpanSlot when unattributed), bit 63 "counted" (this allocation
// incremented the live counters and its free must decrement them).
// sample_ref: generation byte << 24 | shard << 21 | slot, or
// kNoSampleRef; lets the free path decrement the sampled stack's live
// bytes. offset: distance from the malloc/posix_memalign base to the
// user pointer (== the alignment padding), what free() gets back.

struct AllocHeader {
  uint64_t size_and_flags;
  uint32_t sample_ref;
  uint32_t offset;
};
static_assert(sizeof(AllocHeader) == 16, "header must stay 16 bytes");

inline constexpr size_t kHeaderSize = sizeof(AllocHeader);
inline constexpr uint64_t kSizeMask = (uint64_t{1} << 48) - 1;
inline constexpr uint64_t kCountedBit = uint64_t{1} << 63;
inline constexpr unsigned kSpanShift = 48;
inline constexpr uint64_t kSpanFieldMask = 0x3FF;  // 10 bits
inline constexpr uint32_t kNoSpanSlot = 0x3FF;
inline constexpr uint32_t kNoSampleRef = 0xFFFFFFFFu;

// ---------------------------------------------------------------------------
// Process-wide counters. Constant-initialized: the hooks run before and
// after main(), so nothing here may have a dynamic initializer.
//
// The totals are sharded into cache-line-sized cells indexed by a
// per-thread id: a shared fetch_add per allocation across a thread pool
// turns every counter into a contended cache line and costs more than
// the allocation being measured (observed >60% end-to-end overhead on
// the allocation-bound pipeline). With one cell per thread the hot-path
// RMWs stay on lines the owning core holds exclusively; readers sum the
// cells, which is exact whenever the process is quiescent and within
// one in-flight allocation of exact otherwise.
//
// Cells are single-writer in practice — ids are handed out round-robin,
// one per thread, and a thread only ever touches its own cell — so the
// updates are plain relaxed load+store pairs, not fetch_adds: even
// uncontended, a locked RMW costs ~15-20 cycles on x86 and six of them
// per alloc/free pair tripled the price of a fast-path new/delete
// (measured 16 -> 56 ns). Past kCounterCells concurrently-created
// threads, ids wrap and two writers can race a cell, losing an update;
// that is bounded drift in a diagnostic counter, accepted for keeping
// the hot path lock-free *and* RMW-free.

inline constexpr size_t kCounterCells = 64;  // power of two >= max threads

/// Monotone alloc-side and free-side sums, not live/cum directly: the
/// allocation path then bumps two counters instead of four (live and
/// cumulative are derived at read time as difference and alloc-side
/// sum), and the running alloc_count doubles as the peak-sampling
/// countdown — no separate per-thread counter to maintain. "Live" per
/// cell can go negative (alloc on thread A, free on thread B); only the
/// cross-cell sum is meaningful.
struct alignas(64) CounterCell {
  std::atomic<uint64_t> alloc_bytes{0};
  std::atomic<uint64_t> alloc_count{0};
  std::atomic<uint64_t> freed_bytes{0};
  std::atomic<uint64_t> freed_count{0};
};

CounterCell g_counter_cells[kCounterCells];
std::atomic<uint64_t> g_peak_live_bytes{0};
/// Monotone count of cell ids handed out; readers walk only
/// min(g_cell_seq, kCounterCells) cells, so a single-threaded process
/// touches one counter line per sum instead of dragging all 4 KB of
/// cells through L1.
std::atomic<uint32_t> g_cell_seq{0};

/// This thread's counter-cell index; assigned round-robin on first use.
constinit thread_local uint32_t t_cell = 0xFFFFFFFFu;

/// The mode flags the allocation fast path consults, packed onto one
/// read-mostly cache line so the off and counters-only paths touch one
/// shared line, not three.
///
/// track_state is a tri-state so the first allocation (possibly before
/// main) can lazily consult LTEE_MEMTRACK: 0 = uninitialized, 1 = off,
/// 2 = on.
///
/// span_accounting is a second, more expensive level on top of the
/// totals: per-allocation it re-reads the innermost span on epoch
/// change and bumps three per-span stripe counters, which measures ~3x
/// the cost of the bare totals bumps on an allocation-bound workload.
/// The always-on counters mode (--memtrack, LTEE_MEMTRACK, pipeline
/// stage deltas) does not need it — every consumer of per-span bytes
/// (heap profiles, /memory, analyze-memory) runs inside a heap-profiler
/// session, which turns it on for the session's duration.
struct alignas(64) ModeFlags {
  std::atomic<int> track_state{0};
  std::atomic<bool> span_accounting{false};
  std::atomic<bool> heap_sampling{false};
};
ModeFlags g_modes;

/// Re-entrancy guard: accounting code that itself allocates (it should
/// not, but belt and braces) must not recurse into accounting. The
/// header is still written for guarded allocations.
constinit thread_local bool t_in_hook = false;

/// Marks a region's allocations as memtrack-internal (sample tables,
/// collect-time symbolization) so the observer never counts itself.
struct ScopedHookGuard {
  bool prev;
  ScopedHookGuard() : prev(t_in_hook) { t_in_hook = true; }
  ~ScopedHookGuard() { t_in_hook = prev; }
};

// ---------------------------------------------------------------------------
// Span table: fixed open-addressing map name -> byte counters, written
// lock-free from the allocation hook. state: 0 empty, 1 claimed
// (name being written), 2 ready.

inline constexpr size_t kSpanTableSize = 512;  // power of two, < kNoSpanSlot
static_assert(kSpanTableSize <= kNoSpanSlot, "slot ids must fit the field");

/// Per-slot counters are striped for the same reason the totals are
/// sharded: a whole thread pool typically sits inside ONE span (the
/// stage being run), so un-striped slot counters would re-create the
/// exact contention the counter cells remove. One stripe per counter
/// cell keeps every stripe single-writer (so the plain load+store
/// updates stay safe); readers sum the stripes. The table is BSS and
/// faulted lazily — a thread only dirties the one line per span it
/// actually allocates under, so the large virtual footprint stays
/// nearly free resident.
inline constexpr size_t kSpanStripes = kCounterCells;

struct SpanSlot {
  std::atomic<uint32_t> state{0};
  char name[util::trace::kTrackedSpanNameLen] = {};
  struct alignas(64) Stripe {
    std::atomic<int64_t> live{0};
    std::atomic<uint64_t> cum{0};
    std::atomic<uint64_t> allocs{0};
  };
  Stripe stripes[kSpanStripes];
};

SpanSlot g_span_table[kSpanTableSize];
std::atomic<uint64_t> g_span_table_full{0};

#if LTEE_MEMTRACK_INTERPOSE
uint32_t HashSpanName(const char* name) {
  uint32_t h = 2166136261u;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<uint8_t>(*p);
    h *= 16777619u;
  }
  return h;
}

uint32_t FindOrInsertSpanSlot(const char* name) {
  uint32_t idx = HashSpanName(name) & (kSpanTableSize - 1);
  for (size_t probes = 0; probes < kSpanTableSize; ++probes) {
    SpanSlot& slot = g_span_table[idx];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == 0) {
      uint32_t expected = 0;
      if (slot.state.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
        size_t n = 0;
        for (; n < sizeof(slot.name) - 1 && name[n] != '\0'; ++n) {
          slot.name[n] = name[n];
        }
        slot.name[n] = '\0';
        slot.state.store(2, std::memory_order_release);
        return idx;
      }
      state = expected;
    }
    // Another thread is mid-insert on this slot: its name copy is a few
    // instructions, spin it out rather than mis-filing bytes.
    while (state == 1) state = slot.state.load(std::memory_order_acquire);
    if (std::strncmp(slot.name, name, sizeof(slot.name)) == 0) return idx;
    idx = (idx + 1) & (kSpanTableSize - 1);
  }
  g_span_table_full.fetch_add(1, std::memory_order_relaxed);
  return kNoSpanSlot;
}
#endif  // LTEE_MEMTRACK_INTERPOSE

/// Per-thread (epoch -> innermost span slot) cache: attribution costs
/// one TLS epoch compare per allocation in the steady state instead of a
/// 48-byte name copy plus a hash probe.
struct SpanCache {
  uint64_t epoch;
  uint32_t slot;
  bool valid;
  char name[util::trace::kTrackedSpanNameLen];
};
constinit thread_local SpanCache t_span_cache{0, 0, false, {}};

// ---------------------------------------------------------------------------
// Heap-profiler sampling state: the shared sample rings, plus what the
// free path needs to find a sample again.

/// sample_ref layout: generation byte << 24 | shard << kSlotBits | slot.
inline constexpr uint32_t kSlotBits = 21;
inline constexpr uint32_t kSlotMask = (uint32_t{1} << kSlotBits) - 1;
static_assert(kSampleRingCapacity <= kSlotMask, "slot ids must fit the ref");
static_assert(kSampleShards == 8, "sample refs hold a 3-bit shard");

/// POD like the CPU profiler's RawSample, so allocating the rings touches
/// none of their pages; every field is written when a slot is claimed.
/// `live` is shared with the free path and only accessed through
/// std::atomic_ref (mutable: ForEachReady hands out const samples).
struct HeapSample {
  void* frames[util::kMaxStackDepth];
  mutable int64_t live;
  uint64_t size;
  int depth;
  char span[util::trace::kTrackedSpanNameLen];
};

constinit SampleRings<HeapSample> g_heap_rings;

std::atomic<uint64_t> g_heap_sample_bytes{kDefaultHeapSampleBytes};
std::atomic<uint32_t> g_heap_gen{0};

/// Whether the open session switched these on itself, and so switches
/// them off at Stop. Guarded by the session lock.
bool g_heap_owns_tracking = false;
bool g_heap_owns_span_accounting = false;

/// Byte generation tag stored in sample refs: cycles 1..255, never 0, so
/// a ref from a previous session can (almost) never decrement a slot the
/// current session reused.
#if LTEE_MEMTRACK_INTERPOSE
uint32_t GenByte(uint32_t gen) { return (gen % 255u) + 1u; }
#endif

/// Per-thread sampling countdown; re-seeded when the generation moves.
struct ThreadSampleState {
  uint32_t gen;
  int64_t budget;
};
constinit thread_local ThreadSampleState t_sample{0, 0};

#if LTEE_MEMTRACK_INTERPOSE
#define LTEE_MEMTRACK_NOINLINE __attribute__((noinline))
#define LTEE_MEMTRACK_INLINE inline __attribute__((always_inline))

int InitTrackStateSlow() {
  const char* env = std::getenv("LTEE_MEMTRACK");
  const bool on =
      env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
  int expected = 0;
  if (g_modes.track_state.compare_exchange_strong(expected, on ? 2 : 1,
                                            std::memory_order_relaxed)) {
    return on ? 2 : 1;
  }
  return expected;
}

LTEE_MEMTRACK_INLINE bool TrackingOn() {
  int state = g_modes.track_state.load(std::memory_order_relaxed);
  if (state == 0) state = InitTrackStateSlow();
  return state == 2;
}

/// Single-writer counter bump: plain relaxed load+store, no locked RMW.
/// Only valid on this thread's own cell/stripe (see the cell comment).
LTEE_MEMTRACK_INLINE void CellAdd(std::atomic<int64_t>& counter, int64_t v) {
  counter.store(counter.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
}

LTEE_MEMTRACK_INLINE void CellAdd(std::atomic<uint64_t>& counter, uint64_t v) {
  counter.store(counter.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
}

LTEE_MEMTRACK_INLINE uint32_t CellIndexForThread() {
  uint32_t idx = t_cell;
  if (idx == 0xFFFFFFFFu) {
    idx = g_cell_seq.fetch_add(1, std::memory_order_relaxed) &
          (kCounterCells - 1);
    t_cell = idx;
  }
  return idx;
}

LTEE_MEMTRACK_INLINE size_t AssignedCellCount() {
  const uint32_t seq = g_cell_seq.load(std::memory_order_relaxed);
  return seq < kCounterCells ? seq : kCounterCells;
}

int64_t SumLiveBytes() {
  int64_t live = 0;
  const size_t assigned = AssignedCellCount();
  for (size_t i = 0; i < assigned; ++i) {
    const CounterCell& cell = g_counter_cells[i];
    live += static_cast<int64_t>(
                cell.alloc_bytes.load(std::memory_order_relaxed)) -
            static_cast<int64_t>(
                cell.freed_bytes.load(std::memory_order_relaxed));
  }
  return live;
}

/// Folds the current live sum into the stored peak and returns the
/// result. Called opportunistically from the hot path (amortized over
/// kPeakSampleAllocs allocations per thread) and from every totals
/// read, so the invariant peak >= live holds at every observation
/// point without a contended CAS per allocation.
uint64_t UpdatePeakLiveBytes() {
  const int64_t live_signed = SumLiveBytes();
  const uint64_t live =
      live_signed > 0 ? static_cast<uint64_t>(live_signed) : 0;
  uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return peak > live ? peak : live;
}

inline constexpr uint64_t kPeakSampleAllocs = 512;  // power of two
static_assert((kPeakSampleAllocs & (kPeakSampleAllocs - 1)) == 0);

LTEE_MEMTRACK_NOINLINE void MaybeSample(AllocHeader* header, size_t size,
                                        const char* span) {
  const uint32_t gen = g_heap_gen.load(std::memory_order_relaxed);
  ThreadSampleState& ts = t_sample;
  if (ts.gen != gen) {
    ts.gen = gen;
    ts.budget = static_cast<int64_t>(
        g_heap_sample_bytes.load(std::memory_order_relaxed));
  }
  ts.budget -= static_cast<int64_t>(size);
  if (ts.budget > 0) return;
  ts.budget = static_cast<int64_t>(
      g_heap_sample_bytes.load(std::memory_order_relaxed));
  const unsigned shard = static_cast<unsigned>(
      static_cast<unsigned long>(::syscall(SYS_gettid)) % kSampleShards);
  uint32_t idx = 0;
  HeapSample* claimed = g_heap_rings.Claim(shard, &idx);
  if (claimed == nullptr) return;
  HeapSample& sample = *claimed;
  // skip=3 drops MaybeSample, RecordAlloc and TrackedAlloc; the operator
  // replacement itself stays and is scrubbed at collect time by symbol
  // name (inlining of the thin operator bodies is compiler-dependent).
  sample.depth = util::CaptureStack(sample.frames, util::kMaxStackDepth, 3);
  sample.size = size;
  std::atomic_ref<int64_t>(sample.live)
      .store(static_cast<int64_t>(size), std::memory_order_relaxed);
  if (span != nullptr && span[0] != '\0') {
    std::strncpy(sample.span, span, sizeof(sample.span) - 1);
    sample.span[sizeof(sample.span) - 1] = '\0';
  } else {
    sample.span[0] = '\0';
  }
  g_heap_rings.Publish(shard, idx);
  header->sample_ref = (GenByte(gen) << 24) | (shard << kSlotBits) | idx;
}

LTEE_MEMTRACK_NOINLINE void RecordAlloc(AllocHeader* header, size_t size) {
  if (t_in_hook || !TrackingOn()) return;
  // No guard flip for the plain counter bumps below — nothing in them
  // allocates. Only MaybeSample's stack capture gets the re-entrancy
  // guard; two TLS stores per allocation are measurable at this
  // call rate.
  // Compose the final header word in a register and store it once at
  // the end — TrackedAlloc's initial store is still in the store
  // buffer, so read-modify-writing it here costs a forwarded load and
  // an extra store for nothing.
  uint64_t flags = (size & kSizeMask) | kCountedBit |
                   (static_cast<uint64_t>(kNoSpanSlot) << kSpanShift);
  const uint32_t cell_index = CellIndexForThread();
  CounterCell& cell = g_counter_cells[cell_index];
  CellAdd(cell.alloc_bytes, size);
  const uint64_t count =
      cell.alloc_count.load(std::memory_order_relaxed) + 1;
  cell.alloc_count.store(count, std::memory_order_relaxed);
  // The running count doubles as the opportunistic peak-fold countdown.
  if ((count & (kPeakSampleAllocs - 1)) == 0) UpdatePeakLiveBytes();

  const char* sample_span = nullptr;
  if (g_modes.span_accounting.load(std::memory_order_relaxed)) {
    SpanCache& cache = t_span_cache;
    const uint64_t epoch = util::trace::SpanEpochForThread();
    if (!cache.valid || cache.epoch != epoch) {
      cache.valid = true;
      cache.epoch = epoch;
      if (util::trace::CurrentSpanNameForSignal(cache.name,
                                                sizeof(cache.name))) {
        cache.slot = FindOrInsertSpanSlot(cache.name);
      } else {
        cache.name[0] = '\0';
        cache.slot = kNoSpanSlot;
      }
    }
    if (cache.slot != kNoSpanSlot) {
      SpanSlot::Stripe& stripe =
          g_span_table[cache.slot].stripes[cell_index % kSpanStripes];
      CellAdd(stripe.live, static_cast<int64_t>(size));
      CellAdd(stripe.cum, size);
      CellAdd(stripe.allocs, uint64_t{1});
      flags = (size & kSizeMask) | kCountedBit |
              (static_cast<uint64_t>(cache.slot) << kSpanShift);
    }
    sample_span = cache.name;
  }
  header->size_and_flags = flags;
  if (g_modes.heap_sampling.load(std::memory_order_relaxed)) {
    t_in_hook = true;
    MaybeSample(header, size, sample_span);
    t_in_hook = false;
  }
}

/// The one allocation path every operator-new replacement funnels into.
/// Returns nullptr on OOM (the operators own the new-handler loop).
LTEE_MEMTRACK_NOINLINE void* TrackedAlloc(size_t size, size_t alignment) {
  if (size > kSizeMask) return nullptr;
  const size_t pad = alignment <= 16 ? kHeaderSize : alignment;
  void* base = nullptr;
  if (alignment <= 16) {
    base = std::malloc(size + pad);
  } else {
    // Power-of-two >= 32 here; posix_memalign additionally wants a
    // multiple of sizeof(void*), which that implies.
    if (alignment > (size_t{1} << 31) ||
        ::posix_memalign(&base, alignment, size + pad) != 0) {
      base = nullptr;
    }
  }
  if (base == nullptr) return nullptr;
  void* user = static_cast<char*>(base) + pad;
  AllocHeader* header =
      reinterpret_cast<AllocHeader*>(static_cast<char*>(user) - kHeaderSize);
  header->size_and_flags =
      (size & kSizeMask) |
      (static_cast<uint64_t>(kNoSpanSlot) << kSpanShift);
  header->sample_ref = kNoSampleRef;
  header->offset = static_cast<uint32_t>(pad);
  RecordAlloc(header, size);
  return user;
}

LTEE_MEMTRACK_NOINLINE void TrackedFree(void* ptr) {
  if (ptr == nullptr) return;
  AllocHeader* header =
      reinterpret_cast<AllocHeader*>(static_cast<char*>(ptr) - kHeaderSize);
  const uint64_t size_and_flags = header->size_and_flags;
  const uint32_t offset = header->offset;
  if ((size_and_flags & kCountedBit) != 0) {
    const uint64_t size = size_and_flags & kSizeMask;
    const uint32_t cell_index = CellIndexForThread();
    CounterCell& cell = g_counter_cells[cell_index];
    CellAdd(cell.freed_bytes, size);
    CellAdd(cell.freed_count, uint64_t{1});
    const uint32_t span_slot =
        static_cast<uint32_t>((size_and_flags >> kSpanShift) & kSpanFieldMask);
    if (span_slot < kSpanTableSize) {
      CellAdd(g_span_table[span_slot].stripes[cell_index % kSpanStripes].live,
              -static_cast<int64_t>(size));
    }
    const uint32_t ref = header->sample_ref;
    if (ref != kNoSampleRef &&
        ((ref >> 24) & 0xFFu) ==
            GenByte(g_heap_gen.load(std::memory_order_relaxed))) {
      if (HeapSample* sample = g_heap_rings.Published(
              (ref >> kSlotBits) & (kSampleShards - 1), ref & kSlotMask)) {
        std::atomic_ref<int64_t>(sample->live)
            .fetch_sub(static_cast<int64_t>(size), std::memory_order_relaxed);
      }
    }
  }
  std::free(static_cast<char*>(ptr) - offset);
}
#endif  // LTEE_MEMTRACK_INTERPOSE

/// Frames the allocator machinery itself contributes to a sampled stack;
/// scrubbed from the leaf end at collect time so flamegraphs lead with
/// the real allocation site.
bool IsAllocatorFrame(const std::string& symbol) {
  return symbol.find("operator new") != std::string::npos ||
         symbol.find("TrackedAlloc") != std::string::npos ||
         symbol.find("RecordAlloc") != std::string::npos ||
         symbol.find("MaybeSample") != std::string::npos ||
         symbol.find("__gnu_cxx::new_allocator") != std::string::npos ||
         symbol.find("std::allocator") != std::string::npos;
}

bool ArmHeapSampling(int64_t sample_bytes, std::string* error) {
#if !LTEE_MEMTRACK_INTERPOSE
  (void)sample_bytes;
  if (error != nullptr) {
    *error = "memory tracking unsupported on this build (sanitizer or "
             "non-Linux)";
  }
  return false;
#else
  if (!util::StackCaptureSupported()) {
    if (error != nullptr) *error = "stack capture unsupported";
    return false;
  }
  util::WarmUpStackCapture();
  {
    // The sample rings are ~60 MB of observer state; keep them out of
    // the live-byte counters they exist to measure.
    ScopedHookGuard guard;
    g_heap_rings.Prepare();
  }
  g_heap_sample_bytes.store(static_cast<uint64_t>(sample_bytes),
                            std::memory_order_relaxed);
  // New generation: per-thread countdowns re-seed and stale refs from
  // the previous session stop matching.
  g_heap_gen.fetch_add(1, std::memory_order_relaxed);
  if (!MemTrackingEnabled()) {
    SetMemTrackingEnabled(true);
    g_heap_owns_tracking = true;
  }
  // Sessions are what per-span bytes exist for; attribution runs exactly
  // as long as the session so plain counters mode stays cheap.
  if (!SpanAccountingEnabled()) {
    SetSpanAccountingEnabled(true);
    g_heap_owns_span_accounting = true;
  }
  g_modes.heap_sampling.store(true, std::memory_order_release);
  return true;
#endif
}

void DisarmHeapSampling() {
  g_modes.heap_sampling.store(false, std::memory_order_relaxed);
  if (g_heap_owns_span_accounting) {
    SetSpanAccountingEnabled(false);
    g_heap_owns_span_accounting = false;
  }
  if (g_heap_owns_tracking) {
    SetMemTrackingEnabled(false);
    g_heap_owns_tracking = false;
  }
}

std::string CollectHeapProfile(const SessionStats& stats) {
  // Symbolization and aggregation allocate heavily; none of it should
  // show up in the profile being exported.
  ScopedHookGuard guard;
  CollapsedStackWriter writer(&IsAllocatorFrame);
  uint64_t samples = 0;
  g_heap_rings.ForEachReady([&](const HeapSample& sample) {
    ++samples;
    const int64_t live =
        std::atomic_ref<int64_t>(sample.live).load(std::memory_order_relaxed);
    if (live <= 0) return;  // fully freed since it was sampled
    writer.Add(sample.span, sample.frames, sample.depth,
               static_cast<uint64_t>(live));
  });
  const MemtrackTotals totals = GetMemtrackTotals();
  char header[256];
  std::snprintf(header, sizeof(header),
                "# ltee-profile heap=1 sample_kb=%lld samples=%llu "
                "dropped=%llu duration_s=%.3f live_bytes=%llu "
                "live_allocs=%llu peak_rss_kb=%llu\n",
                static_cast<long long>((stats.rate + 1023) / 1024),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(stats.dropped),
                stats.duration_s,
                static_cast<unsigned long long>(totals.live_bytes),
                static_cast<unsigned long long>(totals.live_allocs),
                static_cast<unsigned long long>(ReadPeakRssBytes() / 1024));
  std::string out = header;
  for (const SpanBytes& span : MemtrackSpanBytes()) {
    out += "# ltee-memtrack-span ";
    out += CollapsedSpanName(span.span.c_str());
    out += " live=" + std::to_string(span.live_bytes);
    out += " cum=" + std::to_string(span.cum_bytes);
    out += " allocs=" + std::to_string(span.allocs);
    out += '\n';
  }
  writer.AppendTo(&out);
  return out;
}

/// Invalidates sample refs held by still-live allocations: their frees
/// must not decrement slots a new session will reuse.
void ResetHeapSampling() {
  g_heap_gen.fetch_add(1, std::memory_order_relaxed);
}

constinit SampledSession g_heap_session{SessionHooks{
    "heap profile", "ltee.memtrack", 1, int64_t{1} << 30, &g_heap_rings,
    &ArmHeapSampling, &DisarmHeapSampling, &CollectHeapProfile,
    &ResetHeapSampling}};

}  // namespace

// ---------------------------------------------------------------------------
// Public API

bool MemTrackingSupported() { return LTEE_MEMTRACK_INTERPOSE != 0; }

#if LTEE_MEMTRACK_INTERPOSE

void SetMemTrackingEnabled(bool enabled) {
  // Resolve the env-derived initial state first so a concurrent lazy
  // init cannot overwrite this explicit request.
  TrackingOn();
  g_modes.track_state.store(enabled ? 2 : 1, std::memory_order_relaxed);
}

bool MemTrackingEnabled() { return TrackingOn(); }

void SetSpanAccountingEnabled(bool enabled) {
  // The exchange keeps the span-tracking reference count paired: exactly
  // one trace-side enable per off->on transition, one disable per
  // on->off.
  const bool previous =
      g_modes.span_accounting.exchange(enabled, std::memory_order_relaxed);
  if (enabled && !previous) {
    util::trace::SetSpanTrackingEnabled(true);
  } else if (!enabled && previous) {
    util::trace::SetSpanTrackingEnabled(false);
  }
}

bool SpanAccountingEnabled() {
  return g_modes.span_accounting.load(std::memory_order_relaxed);
}

MemtrackTotals GetMemtrackTotals() {
  MemtrackTotals totals;
  uint64_t freed_bytes = 0;
  uint64_t freed_count = 0;
  const size_t assigned = AssignedCellCount();
  for (size_t i = 0; i < assigned; ++i) {
    const CounterCell& cell = g_counter_cells[i];
    totals.cum_bytes += cell.alloc_bytes.load(std::memory_order_relaxed);
    totals.cum_allocs += cell.alloc_count.load(std::memory_order_relaxed);
    freed_bytes += cell.freed_bytes.load(std::memory_order_relaxed);
    freed_count += cell.freed_count.load(std::memory_order_relaxed);
  }
  totals.live_bytes =
      totals.cum_bytes > freed_bytes ? totals.cum_bytes - freed_bytes : 0;
  totals.live_allocs =
      totals.cum_allocs > freed_count ? totals.cum_allocs - freed_count : 0;
  // Folding here (not just in the hot path) keeps peak >= live true for
  // every reader, whatever the per-thread sampling countdowns hold.
  totals.peak_live_bytes = UpdatePeakLiveBytes();
  return totals;
}

std::vector<SpanBytes> MemtrackSpanBytes() {
  std::vector<SpanBytes> out;
  for (const SpanSlot& slot : g_span_table) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    SpanBytes span;
    span.span = slot.name;
    int64_t live = 0;
    for (const SpanSlot::Stripe& stripe : slot.stripes) {
      live += stripe.live.load(std::memory_order_relaxed);
      span.cum_bytes += stripe.cum.load(std::memory_order_relaxed);
      span.allocs += stripe.allocs.load(std::memory_order_relaxed);
    }
    span.live_bytes = live > 0 ? static_cast<uint64_t>(live) : 0;
    out.push_back(std::move(span));
  }
  std::sort(out.begin(), out.end(), [](const SpanBytes& a, const SpanBytes& b) {
    if (a.cum_bytes != b.cum_bytes) return a.cum_bytes > b.cum_bytes;
    return a.span < b.span;
  });
  return out;
}

#else  // !LTEE_MEMTRACK_INTERPOSE

void SetMemTrackingEnabled(bool) {}
bool MemTrackingEnabled() { return false; }
void SetSpanAccountingEnabled(bool) {}
bool SpanAccountingEnabled() { return false; }
MemtrackTotals GetMemtrackTotals() { return {}; }
std::vector<SpanBytes> MemtrackSpanBytes() { return {}; }

#endif

uint64_t ReadPeakRssBytes() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        const uint64_t kb = std::strtoull(line + 6, nullptr, 10);
        std::fclose(f);
        if (kb > 0) return kb * 1024;
        break;
      }
    }
    std::fclose(f);
  }
  struct rusage usage;
  if (::getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
  }
  return 0;
}

SampledSession& HeapProfiler() { return g_heap_session; }

#if LTEE_MEMTRACK_INTERPOSE
/// External-linkage bridges so the global operator replacements (outside
/// this namespace) can reach the file-local hook implementations. Forced
/// inline: they must not add a stack frame between the operator and
/// TrackedAlloc, or the collect-time frame scrub would miscount.
namespace memtrack_internal {
LTEE_MEMTRACK_INLINE void* Alloc(std::size_t size, std::size_t align) {
  return TrackedAlloc(size, align);
}
LTEE_MEMTRACK_INLINE void Free(void* ptr) { TrackedFree(ptr); }
}  // namespace memtrack_internal
#endif

}  // namespace ltee::obsv

// ---------------------------------------------------------------------------
// Global operator new/delete replacements. Outside any namespace by
// definition; every variant funnels into TrackedAlloc/TrackedFree so a
// pointer allocated by one variant frees correctly through any other.

#if LTEE_MEMTRACK_INTERPOSE

namespace {

LTEE_MEMTRACK_INLINE void* ThrowingNew(std::size_t size, std::size_t align) {
  for (;;) {
    if (void* ptr = ltee::obsv::memtrack_internal::Alloc(size, align)) {
      return ptr;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

}  // namespace

void* operator new(std::size_t size) { return ThrowingNew(size, 0); }

void* operator new[](std::size_t size) { return ThrowingNew(size, 0); }

void* operator new(std::size_t size, std::align_val_t align) {
  return ThrowingNew(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ThrowingNew(size, static_cast<std::size_t>(align));
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ThrowingNew(size, 0);
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ThrowingNew(size, 0);
  } catch (...) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return ThrowingNew(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return ThrowingNew(size, static_cast<std::size_t>(align));
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* ptr) noexcept { ltee::obsv::memtrack_internal::Free(ptr); }
void operator delete[](void* ptr) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete(void* ptr, std::size_t) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete[](void* ptr, std::size_t) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  ltee::obsv::memtrack_internal::Free(ptr);
}

#endif  // LTEE_MEMTRACK_INTERPOSE
