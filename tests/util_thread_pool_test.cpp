// Thread pool & parallel_for: completeness, determinism via chunk ids.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace bdlfi::util {
namespace {

TEST(ThreadPool, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, &pool);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  std::atomic<long long> sum{0};
  parallel_for(1, 10001, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  }, &pool);
  EXPECT_EQ(sum.load(), 50005000LL);
}

TEST(ParallelForChunked, ChunksPartitionRange) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> ranges(7);
  parallel_for_chunked(10, 110, 7,
                       [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                         ranges[chunk] = {lo, hi};
                       },
                       &pool);
  std::size_t covered = 0;
  for (const auto& [lo, hi] : ranges) covered += hi - lo;
  EXPECT_EQ(covered, 100u);
  // Contiguity: sorted by chunk id the ranges chain.
  std::size_t cursor = 10;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, cursor);
    cursor = hi;
  }
  EXPECT_EQ(cursor, 110u);
}

TEST(ParallelForChunked, DeterministicPerChunkRngs) {
  // The reproducibility pattern campaigns rely on: one RNG stream per chunk
  // id gives identical results regardless of pool size.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(16, 0.0);
    parallel_for_chunked(0, 16, 16,
                         [&](std::size_t chunk, std::size_t lo,
                             std::size_t hi) {
                           Rng rng{1000 + chunk};
                           for (std::size_t i = lo; i < hi; ++i) {
                             out[i] = rng.uniform();
                           }
                         },
                         &pool);
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelForChunked, MoreChunksThanItemsClamps) {
  std::vector<int> hits(3, 0);
  parallel_for_chunked(0, 3, 100,
                       [&](std::size_t, std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                       });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForChunked, ChunkExceptionIsRethrownAfterEveryChunkRan) {
  // Helpers still hold references into the caller's frame while they run,
  // so a throwing chunk must not unwind the caller before they finish.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> ran(16);
  EXPECT_THROW(parallel_for_chunked(
                   0, 16, 16,
                   [&](std::size_t c, std::size_t, std::size_t) {
                     ran[c].fetch_add(1);
                     if (c % 5 == 0) throw std::runtime_error("chunk failed");
                   },
                   &pool),
               std::runtime_error);
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelFor, NestedUseDoesNotDeadlock) {
  // Outer width equal to the pool size: every worker holds an outer task, so
  // a nested call whose issuer waited on queued tasks (instead of claiming
  // its own chunks) would wait forever on tasks no worker is free to run.
  ThreadPool pool(4);
  const std::size_t outer = pool.size();
  constexpr std::size_t kInner = 30;
  constexpr std::size_t kChunks = 4;  // uneven partition: 8, 8, 7, 7

  // Top-level partition on the same pool: the reference chunk ids.
  std::vector<std::size_t> want_chunk(kInner, kChunks);
  parallel_for_chunked(0, kInner, kChunks,
                       [&](std::size_t c, std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) {
                           want_chunk[i] = c;
                         }
                       },
                       &pool);

  std::vector<std::vector<std::size_t>> values(
      outer, std::vector<std::size_t>(kInner, 0));
  std::vector<std::vector<std::size_t>> chunk_of(
      outer, std::vector<std::size_t>(kInner, kChunks));
  parallel_for(0, outer, [&](std::size_t o) {
    parallel_for(0, kInner, [&](std::size_t i) {
      values[o][i] = o * 1000 + i * i;
    }, &pool);
    parallel_for_chunked(0, kInner, kChunks,
                         [&](std::size_t c, std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                             chunk_of[o][i] = c;
                           }
                         },
                         &pool);
  }, &pool);

  for (std::size_t o = 0; o < outer; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(values[o][i], o * 1000 + i * i);  // the serial loop's result
      EXPECT_EQ(chunk_of[o][i], want_chunk[i]);
    }
  }
  EXPECT_EQ(want_chunk.front(), 0u);
  EXPECT_EQ(want_chunk[8], 1u);
  EXPECT_EQ(want_chunk[16], 2u);
  EXPECT_EQ(want_chunk[23], 3u);
}

TEST(ParallelFor, NarrowOuterLoopBorrowsIdleWorkers) {
  // Two outer tasks on a four-worker pool: the idle workers must join the
  // inner loops. Each inner chunk records its thread and then waits until
  // three distinct threads have run inner chunks, so the count does not
  // depend on how fast helpers wake. One deadline caps all the waits at 10 s.
  ThreadPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> inner_threads;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  parallel_for(0, 2, [&](std::size_t) {
    parallel_for_chunked(0, 8, 8, [&](std::size_t, std::size_t, std::size_t) {
      std::unique_lock<std::mutex> lock(mu);
      inner_threads.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_until(lock, deadline,
                    [&] { return inner_threads.size() >= 3; });
    }, &pool);
  }, &pool);
  EXPECT_GE(inner_threads.size(), 3u);
}

thread_local int t_outer_tag = -1;

TEST(ParallelFor, WaiterRunsOnlyItsOwnChunks) {
  // Three outer tasks each issue a slow inner loop; idle workers claim
  // some of their chunks, so issuers finish their own share and then wait
  // while the other calls' helper tasks sit queued. An issuer runs only
  // chunks of its own call: any inner chunk that runs on a thread inside an
  // outer task sees that task's tag, never another's. (A waiter that ran
  // queued tasks fails this in every run.)
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 3, kInner = 12;
  std::vector<std::vector<int>> seen(kOuter, std::vector<int>(kInner, -2));
  parallel_for(0, kOuter, [&](std::size_t o) {
    t_outer_tag = static_cast<int>(o);
    parallel_for_chunked(0, kInner, kInner,
                         [&, o](std::size_t c, std::size_t, std::size_t) {
                           std::this_thread::sleep_for(
                               std::chrono::microseconds(500));
                           seen[o][c] = t_outer_tag;
                         },
                         &pool);
    t_outer_tag = -1;
  }, &pool);
  std::size_t own = 0;
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t c = 0; c < kInner; ++c) {
      // -1: an idle helper; o: the issuer itself.
      EXPECT_TRUE(seen[o][c] == -1 || seen[o][c] == static_cast<int>(o))
          << "outer " << o << " chunk " << c << " ran inside outer "
          << seen[o][c];
      if (seen[o][c] == static_cast<int>(o)) ++own;
    }
  }
  EXPECT_GT(own, 0u);  // issuers do claim chunks of their own calls
}

}  // namespace
}  // namespace bdlfi::util
