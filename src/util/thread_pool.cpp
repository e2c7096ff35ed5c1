#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"
#include "util/check.h"

namespace bdlfi::util {

namespace {

// Pool gauges, registered once. queue_depth counts submitted-but-unstarted
// tasks; active_workers counts tasks currently executing, so
// active_workers / pool-size is the utilization the reporter surfaces.
struct PoolMetrics {
  obs::Gauge& queue_depth =
      obs::MetricsRegistry::global().gauge("pool.queue_depth");
  obs::Gauge& active_workers =
      obs::MetricsRegistry::global().gauge("pool.active_workers");
  obs::Counter& tasks =
      obs::MetricsRegistry::global().counter("pool.tasks_completed");
  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};

// True on pool worker threads; a parallel_for issued there runs inline.
thread_local bool t_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    BDLFI_CHECK_MSG(!stop_, "submit() on a stopped ThreadPool");
    queue_.push(std::move(task));
    ++in_flight_;
    if (obs::enabled()) {
      PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
    }
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      if (obs::enabled()) {
        PoolMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
        PoolMetrics::get().active_workers.add(1.0);
      }
    }
    task();
    if (obs::enabled()) {
      PoolMetrics::get().active_workers.add(-1.0);
      PoolMetrics::get().tasks.add();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {
// Heap-allocated so reinit_after_fork can swap it atomically; never
// destroyed (worker threads may still be parked in it at static-destruction
// time, and the object stays reachable through the pointer, so this is not a
// leak).
std::atomic<ThreadPool*> g_global_pool{nullptr};
std::mutex g_global_pool_mu;
}  // namespace

ThreadPool& ThreadPool::global() {
  ThreadPool* pool = g_global_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  pool = g_global_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    pool = new ThreadPool();
    g_global_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

void ThreadPool::reinit_after_fork(std::size_t num_threads) {
  // The pre-fork pool (if any) is abandoned: only this thread exists in the
  // child, so no lock is needed and none may be taken on the old object.
  g_global_pool.store(new ThreadPool(num_threads), std::memory_order_release);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  if (n <= 1 || pool->size() == 1 || t_pool_worker) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, pool->size() * 4);
  parallel_for_chunked(
      begin, end, chunks,
      [&fn](std::size_t /*chunk*/, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      pool);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end, std::size_t num_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    ThreadPool* pool) {
  if (begin >= end || num_chunks == 0) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  num_chunks = std::min(num_chunks, n);
  const std::size_t base = n / num_chunks;
  const std::size_t extra = n % num_chunks;
  if (num_chunks == 1 || t_pool_worker) {
    // Nested (or trivial) call: the outermost parallel_for owns the cores,
    // so run the same partition inline, chunk ids unchanged.
    std::size_t lo = begin;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t hi = lo + base + (c < extra ? 1 : 0);
      fn(c, lo, hi);
      lo = hi;
    }
    return;
  }
  // A dedicated latch-like barrier: reuse the pool's wait_idle would race with
  // other concurrent users, so count completions locally.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = num_chunks;
  std::size_t lo = begin;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t hi = lo + len;
    pool->submit([&, c, lo, hi] {
      fn(c, lo, hi);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_all();
    });
    lo = hi;
  }
  BDLFI_CHECK(lo == end);
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace bdlfi::util
