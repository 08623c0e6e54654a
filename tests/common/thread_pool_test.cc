#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sld {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(17, 0);
    pool.ParallelFor(out.size(),
                     [&](std::size_t i) { out[i] = round; });
    for (const int v : out) EXPECT_EQ(v, round);
  }
}

TEST(ThreadPoolTest, ZeroAndOneElementJobs) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  // Inline execution preserves index order — observable, and what makes
  // threads=1 exactly the serial code path.
  std::vector<std::size_t> order;
  pool.ParallelFor(8, [&](std::size_t i) { order.push_back(i); });
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [&](std::size_t i) {
                                  if (i == 37) throw std::runtime_error("x");
                                }),
               std::runtime_error);
  // The pool survives a throwing job and keeps working.
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
}

// Stress: many small jobs back to back from the same pool.  Under TSan
// this shakes out handoff races between generations.
TEST(ThreadPoolTest, StressManySmallGenerations) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  std::int64_t expect = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(round % 7);
    for (std::size_t i = 0; i < n; ++i) {
      expect += static_cast<std::int64_t>(i);
    }
    pool.ParallelFor(n, [&](std::size_t i) {
      sum.fetch_add(static_cast<std::int64_t>(i),
                    std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), expect);
}

TEST(ThreadPoolTest, HardwareDefaultWhenNonPositive) {
  ThreadPool pool(0);
  std::atomic<int> count{0};
  pool.ParallelFor(64, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64);
}

}  // namespace
}  // namespace sld
