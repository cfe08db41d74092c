#ifndef AGGCACHE_COMMON_THREAD_POOL_H_
#define AGGCACHE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aggcache {

/// Fixed-size worker pool used to fan out independent subjoin executions
/// (Executor::ExecuteSubjoins: uncached unions, entry builds, delta
/// compensation, correction joins and the merge fold). The pool provides
/// raw task submission; most callers go through TaskGroup or ParallelFor
/// below.
///
/// Sizing convention: a pool constructed with parallelism P spawns P - 1
/// worker threads, because the submitting thread always participates in
/// ParallelFor. A parallelism of 1 therefore spawns no threads at all and
/// every ParallelFor degenerates to the plain sequential loop — bit-identical
/// to single-threaded execution with zero synchronization overhead.
class ThreadPool {
 public:
  /// Upper bound on parallelism; larger requests are clamped.
  static constexpr size_t kMaxParallelism = 1024;

  /// `parallelism` counts the calling thread; values outside
  /// [1, kMaxParallelism] are clamped.
  explicit ThreadPool(size_t parallelism);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the calling thread.
  size_t parallelism() const { return workers_.size() + 1; }
  size_t num_workers() const { return workers_.size(); }

  /// Enqueues a task for the workers. The task must not throw: a task that
  /// does is caught by the worker, reported, and terminates the process —
  /// silently losing an exception (or unwinding a worker loop) would leave
  /// TaskGroup counters and ParallelFor callers hanging.
  void Submit(std::function<void()> task);

  /// True while any task is queued or running on a worker. Used by
  /// SetGlobalParallelism to refuse to destroy a pool under live work.
  bool Busy() const;

  /// True when the current thread is one of some pool's workers. Nested
  /// fan-outs detect this and run sequentially instead of blocking a worker
  /// on sub-tasks no one may pick up.
  static bool InWorker();

  /// The process-wide pool used by the query engine. Sized on first use
  /// from the AGGCACHE_THREADS environment variable, defaulting to
  /// std::thread::hardware_concurrency().
  static ThreadPool& Global();

  /// Replaces the global pool with one of the given parallelism (the
  /// --threads=N bench knob). Must not be called while work is in flight:
  /// doing so would join workers mid-task from under their callers, so the
  /// call fails loudly (process abort with a diagnostic) instead of
  /// deadlocking or racing.
  static void SetGlobalParallelism(size_t parallelism);

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  /// Tasks currently executing on workers (dequeued but unfinished).
  size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// A set of tasks submitted to a pool whose completion can be awaited.
/// With a serial pool (no workers) tasks run inline on the calling thread
/// in submission order.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `task`; runs it inline when the pool is serial or the
  /// calling thread is itself a pool worker.
  void Run(std::function<void()> task);

  /// Blocks until every task passed to Run has finished.
  void Wait();

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
};

/// Runs fn(0) .. fn(n-1) across `pool`, the calling thread included. Indices
/// are claimed dynamically, so per-index cost may vary freely; completion of
/// every index is guaranteed on return. Callers own any cross-index
/// determinism: write results into per-index slots and reduce in index order
/// after the call. `fn` must not throw.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 ThreadPool& pool);

/// ParallelFor over the global pool.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

}  // namespace aggcache

#endif  // AGGCACHE_COMMON_THREAD_POOL_H_
