#ifndef LTEE_UTIL_THREAD_POOL_H_
#define LTEE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ltee::util {

/// Fixed-size worker pool shared by the parallel stages: corpus
/// preparation, the per-class pipeline sweep, greedy clustering and model
/// training (GA fitness, bag-fraction candidates). Kept deliberately
/// simple: submit void() tasks, wait for drain.
class ThreadPool {
 public:
  /// `num_threads` == 0 selects hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has completed. Must not be called
  /// from a worker thread (the calling task counts as in-flight and would
  /// deadlock); use ParallelFor for nested fan-out.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for i in [0, n), partitioned into contiguous chunks across
  /// the pool, and waits for completion. Safe to call from a worker thread:
  /// completion is tracked by a per-call latch (not Wait), and the caller
  /// helps execute queued tasks while its chunks are pending, so nested
  /// ParallelFor calls make progress even when every worker is blocked in
  /// one.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop(size_t worker_index);

  /// Pops and runs one queued task. Returns false if the queue was empty.
  bool RunOneTask();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t in_flight_ = 0;
  bool stop_ = false;
};

/// `pool->ParallelFor(n, fn)`, or the same loop inline on the calling
/// thread when `pool` is null. Callers that must produce identical results
/// for any thread count write each `fn(i)` result to its own slot.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace ltee::util

#endif  // LTEE_UTIL_THREAD_POOL_H_
