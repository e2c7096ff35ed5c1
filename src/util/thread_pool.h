// Fixed-size thread pool with a blocking `parallel_for`.
//
// BDLFI runs many independent forward passes (MCMC chains, grid cells of the
// decision-boundary map, injections of a baseline campaign); a simple static
// range partitioner is the right tool — work items are uniform and coarse.
// Reproducibility note: callers that need determinism must derive one RNG
// stream per *index range* (not per thread); `parallel_for_chunked` exposes
// the chunk id for exactly that purpose.
//
// Parallelism rule: the outermost `parallel_for` owns the cores. A
// `parallel_for` / `parallel_for_chunked` issued from inside a pool task (MCMC
// chains → per-sample conv → row-split GEMM) runs inline on the calling
// worker instead of queueing behind the outer chunks, so nesting can never
// park every worker on a latch whose tasks no worker will run. The inline
// form walks the same partition with the same chunk ids, so per-chunk RNG
// streams — and every result — are identical at any nesting depth.
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

/// Runs fn(i) for i in [begin, end) across the pool; blocks until done.
/// Falls back to the calling thread for tiny ranges and when called from a
/// pool worker (see the parallelism rule above).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  ThreadPool* pool = nullptr);

/// Runs fn(chunk_id, chunk_begin, chunk_end) over a static partition of
/// [begin, end) into `num_chunks` contiguous ranges. chunk_id is stable across
/// runs, thread counts and nesting depth (a call from a pool worker runs the
/// chunks inline, in order), so per-chunk RNG streams give deterministic
/// output.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          std::size_t num_chunks,
                          const std::function<void(std::size_t, std::size_t,
                                                   std::size_t)>& fn,
                          ThreadPool* pool = nullptr);

}  // namespace bdlfi::util
