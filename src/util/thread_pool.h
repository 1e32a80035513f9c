// Fixed-size thread pool with a parallel_for convenience wrapper.
//
// Random-forest training and per-domain feature extraction are
// embarrassingly parallel; the pool lets them scale with available cores
// while remaining deterministic (work is partitioned statically by index,
// and all RNG streams are pre-forked per work item).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace seg::util {

/// Chunk `c` of [0, count) split into `chunks` contiguous ranges whose
/// sizes differ by at most one: the first count % chunks ranges hold one
/// more item. A function of (count, chunks, c) alone.
inline std::pair<std::size_t, std::size_t> chunk_bounds(std::size_t count, std::size_t chunks,
                                                        std::size_t c) {
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  const std::size_t begin = c * base + std::min(c, extra);
  return {begin, begin + base + (c < extra ? 1 : 0)};
}

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns a future for its completion.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count), partitioned into contiguous chunks
  /// (chunk_bounds) across the pool, and blocks until all complete.
  /// Exceptions from tasks are rethrown (first one wins).
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace seg::util
