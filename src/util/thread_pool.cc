#include "util/thread_pool.h"

#include <algorithm>
#include <string>

#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace ltee::util {

namespace {

/// Pool-wide instrumentation, registered once and shared by every pool in
/// the process (`ltee.threadpool.*`). References are hoisted here so the
/// per-task cost is the atomic ops alone.
struct PoolMetrics {
  Counter& tasks_completed =
      Metrics().GetCounter("ltee.threadpool.tasks_completed");
  Gauge& queue_depth = Metrics().GetGauge("ltee.threadpool.queue_depth");
  Gauge& queue_depth_peak =
      Metrics().GetGauge("ltee.threadpool.queue_depth_peak");
  Gauge& workers = Metrics().GetGauge("ltee.threadpool.workers");
  /// Summed wall time spent inside tasks; utilization over an interval is
  /// busy_seconds / (workers * interval).
  Gauge& busy_seconds = Metrics().GetGauge("ltee.threadpool.busy_seconds");
  Histogram& task_seconds = Metrics().GetHistogram(
      "ltee.threadpool.task_seconds", ExponentialBuckets(1e-5, 4.0, 12));
};

PoolMetrics& GetPoolMetrics() {
  static PoolMetrics* metrics = new PoolMetrics();
  return *metrics;
}

/// Runs one dequeued task with latency/utilization accounting.
void RunTimedTask(const std::function<void()>& task) {
  PoolMetrics& metrics = GetPoolMetrics();
  WallTimer timer;
  task();
  const double seconds = timer.ElapsedSeconds();
  metrics.tasks_completed.Increment();
  metrics.busy_seconds.Add(seconds);
  metrics.task_seconds.Observe(seconds);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  GetPoolMetrics().workers.Set(static_cast<double>(num_threads));
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
    PoolMetrics& metrics = GetPoolMetrics();
    metrics.queue_depth.Set(static_cast<double>(queue_.size()));
    metrics.queue_depth_peak.Max(static_cast<double>(queue_.size()));
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {

/// Completion latch of one ParallelFor call. Chunk tasks count down;
/// the issuing thread waits on `cv` (shared_ptr keeps it alive in case the
/// issuer returns between a chunk's decrement and its notify).
struct ForLatch {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t chunks = std::min(n, threads_.size() * 4);
  if (chunks <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t chunk_size = (n + chunks - 1) / chunks;
  auto latch = std::make_shared<ForLatch>();
  size_t submitted = 0;
  for (size_t c = 0; c < chunks; ++c) {
    if (c * chunk_size >= n) break;
    ++submitted;
  }
  latch->remaining = submitted;
  for (size_t c = 0; c < submitted; ++c) {
    const size_t begin = c * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    Submit([begin, end, &fn, latch] {
      for (size_t i = begin; i < end; ++i) fn(i);
      {
        std::unique_lock<std::mutex> lock(latch->mu);
        --latch->remaining;
      }
      latch->cv.notify_all();
    });
  }
  // Help drain the queue while our chunks are pending. Running unrelated
  // queued tasks is fine — it only speeds up the pool; the latch alone
  // decides when this call is done.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(latch->mu);
      if (latch->remaining == 0) return;
    }
    if (!RunOneTask()) {
      // Queue empty: our chunks are executing on workers; wait for them.
      std::unique_lock<std::mutex> lock(latch->mu);
      latch->cv.wait(lock, [&] { return latch->remaining == 0; });
      return;
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
    GetPoolMetrics().queue_depth.Set(static_cast<double>(queue_.size()));
  }
  RunTimedTask(task);
  {
    std::unique_lock<std::mutex> lock(mu_);
    --in_flight_;
    if (in_flight_ == 0) cv_done_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  trace::SetCurrentThreadName("ltee-worker-" + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      GetPoolMetrics().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    RunTimedTask(task);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace ltee::util
