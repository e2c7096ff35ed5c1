// Fixed-size thread pool with a blocking `parallel_for`.
//
// BDLFI runs many independent forward passes (MCMC chains, grid cells of the
// decision-boundary map, injections of a baseline campaign); a simple static
// range partitioner is the right tool — work items are uniform and coarse.
// Reproducibility note: callers that need determinism must derive one RNG
// stream per *index range* (not per thread); `parallel_for_chunked` exposes
// the chunk id for exactly that purpose.
//
// Parallelism rule: fork/join by claims, one path at every nesting depth
// (MCMC chains → per-sample conv → row-split GEMM). A call submits helper
// tasks that, like the calling thread, claim chunks from a shared cursor
// until none are left. The caller then waits only for chunks that running
// threads have already claimed, so nesting can never park every worker on a
// latch whose tasks no worker will run, and idle workers join any loop whose
// chunks are still unclaimed. The caller never runs a task it did not issue
// (a chain's round watchdog times that chain's work only). The partition and
// the chunk ids are fixed by the arguments alone, so per-chunk RNG streams —
// and every result — are identical at any nesting depth and pool size.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bdlfi::util {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Process-wide default pool (lazily constructed, sized to the machine).
  static ThreadPool& global();

  /// Replaces the global pool with a freshly constructed one. A fork()ed
  /// child MUST call this before its first parallel_for: the pre-fork pool's
  /// worker threads do not exist in the child and its mutex state is
  /// unspecified, so the inherited object is abandoned untouched (leaked
  /// deliberately — destroying it would lock that mutex). `num_threads`
  /// follows the constructor's convention (0 = hardware concurrency); a fleet
  /// worker passes its per-worker core share so N workers collectively pin
  /// all cores without oversubscribing.
  static void reinit_after_fork(std::size_t num_threads = 0);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [begin, end) across the pool and the calling thread;
/// blocks until done. Runs serially on the calling thread for a single item
/// or a one-worker pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr);

/// Runs fn(chunk_id, chunk_begin, chunk_end) over a static partition of
/// [begin, end) into `num_chunks` contiguous ranges, on the calling thread
/// and up to min(num_chunks - 1, pool size) helper tasks (see the
/// parallelism rule above). chunk_id is stable across runs, thread counts and
/// nesting depth, so per-chunk RNG streams give deterministic output; which
/// thread runs a chunk is not. An exception thrown by fn propagates to the
/// calling thread, and only once no chunk is still running.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          std::size_t num_chunks,
                          const std::function<void(std::size_t, std::size_t,
                                                   std::size_t)>& fn,
                          ThreadPool* pool = nullptr);

}  // namespace bdlfi::util
