// The work-stealing pool underneath the parallel sampling engine.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace imbench {
namespace {

TEST(ThreadPoolTest, WorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  bool all_done = false;  // guarded by mutex
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mutex);
        all_done = true;
        cv.notify_one();
      }
    });
  }
  // The predicate reads only what the last task writes under the mutex, so
  // the wait cannot return (and destroy cv) while that task is still
  // between its increment and its notify.
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return all_done; }));
  EXPECT_EQ(done.load(std::memory_order_acquire), kTasks);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  int ran = 0;
  pool.Submit([&] { ++ran; });  // inline: visible immediately
  EXPECT_EQ(ran, 1);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(10, 4, [&](uint64_t i, uint32_t lane) {
    EXPECT_EQ(lane, 0u);  // no workers: everything on the caller
    ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForCoversEachItemOnce) {
  ThreadPool pool(3);
  constexpr uint64_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, 4, [&](uint64_t i, uint32_t lane) {
    EXPECT_LT(lane, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroItems) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, 4, [&](uint64_t, uint32_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelismClampedToItemCount) {
  ThreadPool pool(4);
  std::atomic<uint32_t> max_lane{0};
  pool.ParallelFor(2, 16, [&](uint64_t, uint32_t lane) {
    uint32_t seen = max_lane.load(std::memory_order_relaxed);
    while (lane > seen &&
           !max_lane.compare_exchange_weak(seen, lane,
                                           std::memory_order_relaxed)) {
    }
  });
  EXPECT_LT(max_lane.load(std::memory_order_relaxed), 2u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A lane body that calls ParallelFor on the same pool must not deadlock
  // waiting for its own queue; the nested call degrades to an inline loop.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, 3, [&](uint64_t, uint32_t) {
    pool.ParallelFor(5, 3, [&](uint64_t, uint32_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(std::memory_order_relaxed), 20);
}

TEST(ThreadPoolTest, UnevenItemCostsBalance) {
  // Dynamic cursor: one slow item must not serialize the rest. This is a
  // smoke test for liveness, not a timing assertion.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  pool.ParallelFor(64, 4, [&](uint64_t i, uint32_t) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(std::memory_order_relaxed), 64);
}

TEST(ThreadPoolTest, SharedPoolSingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  // hardware_concurrency - 1 workers; on a single-core machine that is 0
  // and the pool degrades to inline execution.
  EXPECT_EQ(a.worker_count(),
            std::max(1u, std::thread::hardware_concurrency()) - 1);
}

TEST(ThreadPoolTest, EffectiveThreadsResolvesZeroToHardware) {
  EXPECT_EQ(EffectiveThreads(0),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(EffectiveThreads(1), 1u);
  EXPECT_EQ(EffectiveThreads(7), 7u);
}

}  // namespace
}  // namespace imbench
