// Work-stealing-free, mutex-based thread pool plus a blocking parallel_for.
//
// The simulation database (src/workload/sim_db) sweeps 27 apps x phases x
// core sizes x LLC allocations; phases are embarrassingly parallel, so the
// pool is used there and in a few bench sweeps. On single-core hosts the
// pool degrades to near-serial execution with negligible overhead.
#ifndef QOSRM_COMMON_THREAD_POOL_HH
#define QOSRM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace qosrm {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  /// Enqueues a task. Tasks must not throw; exceptions escaping a task
  /// terminate the program (by design - simulation tasks report errors
  /// through their captured state).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::queue<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Threads to run `items` work items on: `requested` (0 = hardware
/// concurrency), capped at `items` and at least 1. A pool wider than its work
/// only adds idle threads - and a huge request would fail to spawn them.
[[nodiscard]] std::size_t pool_threads(int requested, std::size_t items);

/// Blocking parallel loop over [begin, end): body(i) is invoked exactly once
/// per index, partitioned into contiguous chunks across pool workers plus the
/// calling thread. `body` must be safe to call concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Convenience overload with a transient pool sized for the machine.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace qosrm

#endif  // QOSRM_COMMON_THREAD_POOL_HH
