// Thread pool & parallel_for: completeness, determinism via chunk ids.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
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

TEST(ParallelFor, NestedUseDoesNotDeadlock) {
  // Outer width equal to the pool size: every worker holds an outer task, so
  // a nested call that queued its work behind them (instead of running
  // inline) would wait forever on tasks no worker is free to run.
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

}  // namespace
}  // namespace bdlfi::util
