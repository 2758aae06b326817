#include "sim/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>

namespace gaudi::sim {

namespace {

// Set for the lifetime of any pool worker thread.  A parallel_for issued
// from inside a worker task must run inline: queueing its chunks and
// blocking on their completion deadlocks once every worker is parked in
// such a wait while the chunks that would wake them sit behind it in the
// queue (tensor::ops and tpc::TpcCluster both dispatch through the global
// pool, so the nesting arises naturally, e.g. a reference GEMM inside a
// kernel sweep).
thread_local bool t_on_pool_worker = false;

/// CPUs this process may run on: its affinity mask (taskset, cpusets), else
/// every CPU the machine has.
std::size_t usable_cpus() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&mask));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = usable_cpus();
  // One worker would only hand ranges to a second thread while the caller
  // sleeps: run them on the caller instead.
  if (threads < 2) return;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  if (t_on_pool_worker || chunks <= 1) {
    fn(0, n);
    return;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::atomic<std::size_t> remaining{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // The completion handshake lives on this stack frame.  Only the worker
  // that retires the last chunk touches it after its decrement, and only
  // under done_mutex; waiting for `done` rather than for `remaining == 0`
  // keeps this call from returning, and destroying the frame, until that
  // worker has set `done` and released the lock.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;

  std::size_t submitted = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t begin = 0; begin < n; begin += chunk_size) {
      const std::size_t end = std::min(n, begin + chunk_size);
      ++submitted;
      tasks_.emplace([&, begin, end] {
        try {
          fn(begin, end);
        } catch (...) {
          std::lock_guard elock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          std::lock_guard dlock(done_mutex);
          done = true;
          done_cv.notify_all();
        }
      });
    }
    remaining.store(submitted, std::memory_order_release);
  }
  cv_.notify_all();

  std::unique_lock lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      fn(i);
    }
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gaudi::sim
