#include "util/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

namespace seg::util {

namespace {

std::size_t default_parallelism() {
  if (const char* env = std::getenv("SEG_THREADS"); env != nullptr) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

struct SharedPoolState {
  std::mutex mutex;
  std::size_t requested = 0;  // 0 = default
  std::unique_ptr<ThreadPool> pool;
};

SharedPoolState& state() {
  static SharedPoolState instance;
  return instance;
}

}  // namespace

std::size_t parallelism() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  return s.requested != 0 ? s.requested : default_parallelism();
}

void set_parallelism(std::size_t num_threads) {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  s.requested = num_threads;
  s.pool.reset();  // rebuilt at the new size on next use
}

ThreadPool& shared_pool() {
  auto& s = state();
  std::lock_guard lock(s.mutex);
  const std::size_t want = s.requested != 0 ? s.requested : default_parallelism();
  if (s.pool == nullptr || s.pool->size() != want) {
    s.pool.reset();
    s.pool = std::make_unique<ThreadPool>(want);
  }
  return *s.pool;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) {
    return;
  }
  if (count < 2 || parallelism() < 2) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  shared_pool().parallel_for(count, fn);
}

std::size_t default_chunk_count(std::size_t count) {
  return std::max<std::size_t>(1, std::min(count, parallelism()));
}

void parallel_chunks(std::size_t count, std::size_t num_chunks,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) {
    return;
  }
  if (num_chunks == 0) {
    num_chunks = default_chunk_count(count);
  }
  num_chunks = std::max<std::size_t>(1, std::min(num_chunks, count));
  const auto run_chunk = [&](std::size_t c) {
    const auto [begin, end] = chunk_bounds(count, num_chunks, c);
    fn(c, begin, end);
  };
  if (num_chunks == 1 || parallelism() < 2) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      run_chunk(c);
    }
    return;
  }
  shared_pool().parallel_for(num_chunks, run_chunk);
}

}  // namespace seg::util
