#include "obsv/sampled_session.h"

#include <algorithm>
#include <thread>

#include "util/metrics.h"
#include "util/stack_capture.h"

namespace ltee::obsv {

uint64_t SampleRingIndex::Count() const {
  uint64_t total = 0;
  for (unsigned s = 0; s < kSampleShards; ++s) total += Used(s);
  return total;
}

size_t SampleRingIndex::Used(unsigned shard) const {
  const uint64_t head = shards_[shard].head.load(std::memory_order_relaxed);
  return static_cast<size_t>(std::min<uint64_t>(head, kSampleRingCapacity));
}

void SampleRingIndex::Clear() {
  for (Shard& shard : shards_) {
    // Every flag, not just the claimed range: a writer that claimed a
    // slot just before the session stopped may publish it after Used()
    // was read.
    if (std::atomic<uint8_t>* ready =
            shard.ready.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < kSampleRingCapacity; ++i) {
        ready[i].store(0, std::memory_order_relaxed);
      }
    }
    shard.head.store(0, std::memory_order_relaxed);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

void SampleRingIndex::AllocateReadyFlags() {
  for (Shard& shard : shards_) {
    shard.ready.store(new std::atomic<uint8_t>[kSampleRingCapacity](),
                      std::memory_order_release);
  }
}

bool SampledSession::Start(int64_t rate, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) {
    if (error != nullptr) {
      *error = std::string("a ") + hooks_.name + " capture is already active";
    }
    return false;
  }
  rate = std::clamp(rate, hooks_.min_rate, hooks_.max_rate);
  if (!hooks_.arm(rate, error)) return false;
  rate_ = rate;
  duration_s_ = 0.0;
  started_at_ = std::chrono::steady_clock::now();
  armed_ = true;
  open_ = true;
  total_captures_.fetch_add(1, std::memory_order_relaxed);
  util::Metrics()
      .GetCounter(std::string(hooks_.metric_prefix) + ".captures")
      .Increment();
  return true;
}

void SampledSession::StopLocked() {
  if (!armed_) return;
  duration_s_ = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - started_at_)
                    .count();
  hooks_.disarm();
  armed_ = false;
  const uint64_t samples = hooks_.rings->Count();
  const uint64_t dropped = hooks_.rings->dropped();
  total_samples_.fetch_add(samples, std::memory_order_relaxed);
  total_dropped_.fetch_add(dropped, std::memory_order_relaxed);
  const std::string prefix = hooks_.metric_prefix;
  util::Metrics().GetCounter(prefix + ".samples").Increment(samples);
  util::Metrics().GetCounter(prefix + ".dropped").Increment(dropped);
}

void SampledSession::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  StopLocked();
}

bool SampledSession::Active() {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

SessionStats SampledSession::StatsLocked() const {
  SessionStats stats;
  stats.samples = hooks_.rings->Count();
  stats.dropped = hooks_.rings->dropped();
  stats.rate = rate_;
  stats.duration_s =
      armed_ ? std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_at_)
                   .count()
             : duration_s_;
  return stats;
}

SessionStats SampledSession::Stats() {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

CaptureTotals SampledSession::Totals() const {
  CaptureTotals totals;
  totals.captures = total_captures_.load(std::memory_order_relaxed);
  totals.samples = total_samples_.load(std::memory_order_relaxed);
  totals.dropped = total_dropped_.load(std::memory_order_relaxed);
  return totals;
}

std::string SampledSession::CollectLocked() {
  StopLocked();
  return hooks_.collect(StatsLocked());
}

std::string SampledSession::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  return CollectLocked();
}

void SampledSession::ResetLocked() {
  StopLocked();
  hooks_.rings->Clear();
  if (hooks_.reset != nullptr) hooks_.reset();
  duration_s_ = 0.0;
  rate_ = 0;
  open_ = false;
}

void SampledSession::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ResetLocked();
}

bool SampledSession::Capture(double seconds, int64_t rate,
                             std::string* collapsed, std::string* error) {
  if (!Start(rate, error)) return false;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::clamp(seconds, 0.01, 120.0)));
  std::lock_guard<std::mutex> lock(mu_);
  std::string profile = CollectLocked();
  ResetLocked();
  if (collapsed != nullptr) *collapsed = std::move(profile);
  return true;
}

std::string CollapsedFrameName(const std::string& raw) {
  std::string name = raw;
  size_t paren = name.find('(');
  while (paren != std::string::npos && paren >= 8 &&
         name.compare(paren - 8, 8, "operator") == 0) {
    paren = name.find('(', paren + 1);
  }
  if (paren != std::string::npos && paren > 0) name.resize(paren);
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
  return name.empty() ? std::string("[unknown]") : name;
}

std::string CollapsedSpanName(const char* span) {
  std::string name(span);
  for (char& c : name) {
    if (c == ';') c = ':';
    if (c == ' ') c = '_';
  }
  return name;
}

const CollapsedStackWriter::Symbol& CollapsedStackWriter::Symbolize(
    const void* pc) {
  auto it = symbols_.find(pc);
  if (it == symbols_.end()) {
    const std::string raw = util::SymbolizeAddress(pc).name;
    it = symbols_
             .emplace(pc, Symbol{CollapsedFrameName(raw),
                                 drop_leaf_ != nullptr && drop_leaf_(raw)})
             .first;
  }
  return it->second;
}

void CollapsedStackWriter::Add(const char* span, void* const* frames,
                               int depth, uint64_t weight) {
  int leaf = 0;
  while (leaf < depth && Symbolize(frames[leaf]).dropped_leaf) ++leaf;
  std::string line = "span:";
  line += span[0] != '\0' ? CollapsedSpanName(span) : "(none)";
  // Stacks are stored leaf-first; collapsed lines read root-first.
  for (int f = depth - 1; f >= leaf; --f) {
    line += ';';
    line += Symbolize(frames[f]).name;
  }
  lines_[line] += weight;
}

void CollapsedStackWriter::AppendTo(std::string* out) const {
  for (const auto& [line, weight] : lines_) {
    *out += line;
    *out += ' ';
    *out += std::to_string(weight);
    *out += '\n';
  }
}

}  // namespace ltee::obsv
