// Host-side worker pool used to parallelize *functional* execution
// (reference GEMMs, TPC index-space sweeps).  Simulated timing never depends
// on host threading: cycle accounting is computed analytically per work item
// and combined deterministically.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gaudi::sim {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means one per CPU this process may use
  /// (its sched_getaffinity mask).  A pool of fewer than two starts no
  /// thread and runs every range serially on the caller.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads started: 0 when ranges run on the caller.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all
  /// complete.  Work is chunked to limit synchronization overhead.
  /// Exceptions from fn are captured and the first one is rethrown.
  /// Nested use is safe: when called from inside a pool worker (of any
  /// pool), the range runs inline on the calling thread instead of being
  /// queued, which would deadlock against the blocked workers.  A pool
  /// without workers also runs the range inline.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Chunked variant: fn(begin, end) over disjoint ranges covering [0, n).
  /// Same inline fallback on nested use as parallel_for.
  void parallel_for_chunks(std::size_t n,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool for functional math (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gaudi::sim
