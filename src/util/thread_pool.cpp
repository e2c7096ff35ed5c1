#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

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
  if (n <= 1 || pool->size() == 1) {
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

namespace {

using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

// First index of chunk c in the static partition of [begin, begin + n) into
// num_chunks contiguous ranges (the first n % num_chunks get one extra item).
std::size_t chunk_start(std::size_t begin, std::size_t n,
                        std::size_t num_chunks, std::size_t c) {
  return begin + c * (n / num_chunks) + std::min(c, n % num_chunks);
}

// One parallel_for_chunked call, shared by the issuing thread and its helper
// tasks. Held by shared_ptr so a helper that starts after the call returned
// still finds live state: it sees an exhausted cursor and returns without
// touching `fn`. A thread that claims chunk c < num_chunks keeps the call
// (and so `fn`) alive, because the issuer waits until every chunk is done.
struct ChunkClaims {
  ChunkClaims(std::size_t begin, std::size_t n, std::size_t num_chunks,
              const ChunkFn& fn)
      : begin(begin), n(n), num_chunks(num_chunks), fn(&fn) {}

  // Claims chunks from the cursor and runs them until none are left. An
  // exception from a chunk is kept for the issuer to rethrow.
  void run_claimed() {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      std::exception_ptr err;
      try {
        (*fn)(c, chunk_start(begin, n, num_chunks, c),
              chunk_start(begin, n, num_chunks, c + 1));
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (err && !error) error = err;
      if (++done == num_chunks) cv.notify_all();
    }
  }

  const std::size_t begin, n, num_chunks;
  const ChunkFn* const fn;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;      // guarded by mu
  std::exception_ptr error;  // guarded by mu; the first chunk exception
};

}  // namespace

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          std::size_t num_chunks, const ChunkFn& fn,
                          ThreadPool* pool) {
  if (begin >= end || num_chunks == 0) return;
  if (pool == nullptr) pool = &ThreadPool::global();
  const std::size_t n = end - begin;
  num_chunks = std::min(num_chunks, n);
  if (num_chunks == 1 || pool->size() == 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      fn(c, chunk_start(begin, n, num_chunks, c),
         chunk_start(begin, n, num_chunks, c + 1));
    }
    return;
  }
  // Fork/join by claims: helpers and the issuing thread take chunks from one
  // cursor, so idle workers join in at any nesting depth. The issuer then
  // waits only for chunks already claimed by running threads — it never runs
  // a task it did not issue, and a wait never depends on a queued task.
  auto claims = std::make_shared<ChunkClaims>(begin, n, num_chunks, fn);
  const std::size_t helpers = std::min(num_chunks - 1, pool->size());
  for (std::size_t i = 0; i < helpers; ++i) {
    pool->submit([claims] { claims->run_claimed(); });
  }
  claims->run_claimed();
  std::unique_lock<std::mutex> lock(claims->mu);
  claims->cv.wait(lock, [&] { return claims->done == num_chunks; });
  if (claims->error) std::rethrow_exception(claims->error);
}

}  // namespace bdlfi::util
