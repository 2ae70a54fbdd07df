#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "common/check.hh"

namespace qosrm {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  QOSRM_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    QOSRM_CHECK_MSG(!stop_, "submit() after shutdown");
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

std::size_t pool_threads(int requested, std::size_t items) {
  const std::size_t want =
      requested > 0 ? static_cast<std::size_t>(requested)
                    : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, std::min(want, items));
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.size() + 1;  // pool + calling thread
  const std::size_t chunk = std::max<std::size_t>(1, (n + workers - 1) / workers);

  std::atomic<std::size_t> next{begin};
  auto run_chunks = [&] {
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk);
      if (lo >= end) return;
      const std::size_t hi = std::min(end, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }
  };

  for (std::size_t w = 0; w < pool.size(); ++w) pool.submit(run_chunks);
  run_chunks();
  pool.wait_idle();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (hw <= 1 || end - begin <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ThreadPool pool(hw - 1);
  parallel_for(pool, begin, end, body);
}

}  // namespace qosrm
