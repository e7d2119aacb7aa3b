// The fork-join pool under every parallel stage: items run once each, lane
// l stays on one thread, and the inline fallbacks (no workers, one lane,
// nested calls, a second caller) neither deadlock nor lose items.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace imbench {
namespace {

TEST(ThreadPoolTest, WorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
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
  // A lane body that calls ParallelFor on the same pool finds it busy with
  // its own job and runs the nested items inline instead of waiting.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(4, 3, [&](uint64_t, uint32_t) {
    pool.ParallelFor(5, 3, [&](uint64_t, uint32_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(std::memory_order_relaxed), 20);
}

TEST(ThreadPoolTest, LaneAlwaysRunsOnTheSameThread) {
  // Three lanes on three workers: a pool that handed lane tasks out
  // round-robin (or let idle workers steal them) would move lane 1 and 2
  // between threads from one call to the next.
  ThreadPool pool(3);
  constexpr uint32_t kLanes = 3;
  std::vector<std::thread::id> first(kLanes);
  for (int call = 0; call < 100; ++call) {
    std::vector<std::thread::id> ids(kLanes);
    std::atomic<uint32_t> arrived{0};
    // Every item holds its lane until all lanes have one, so each of the
    // kLanes lanes runs exactly one item.
    pool.ParallelFor(kLanes, kLanes, [&](uint64_t, uint32_t lane) {
      ids[lane] = std::this_thread::get_id();
      arrived.fetch_add(1, std::memory_order_acq_rel);
      while (arrived.load(std::memory_order_acquire) < kLanes) {
        std::this_thread::yield();
      }
    });
    EXPECT_EQ(ids[0], std::this_thread::get_id()) << "call " << call;
    if (call == 0) first = ids;
    for (uint32_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(ids[lane], first[lane]) << "lane " << lane << " call " << call;
    }
  }
}

TEST(ThreadPoolTest, TwoCallersShareOnePool) {
  // Two external threads race for one pool: the loser of each race runs
  // its job inline, and every item of both callers still runs once.
  ThreadPool pool(3);
  constexpr uint64_t kItems = 2000;
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> hits[2] = {
      std::vector<std::atomic<int>>(kItems),
      std::vector<std::atomic<int>>(kItems)};
  auto caller = [&](int who) {
    for (int round = 0; round < kRounds; ++round) {
      pool.ParallelFor(kItems, 0, [&](uint64_t i, uint32_t lane) {
        EXPECT_LT(lane, 4u);
        hits[who][i].fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(caller, 0);
  std::thread b(caller, 1);
  a.join();
  b.join();
  for (int who = 0; who < 2; ++who) {
    for (uint64_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(hits[who][i].load(std::memory_order_relaxed), kRounds)
          << who << ":" << i;
    }
  }
}

TEST(ThreadPoolTest, ResolveFanoutClampsToThePool) {
  ThreadPool pool(3);
  const Fanout one = ResolveFanout(1, &pool);
  EXPECT_EQ(one.lanes, 1u);
  EXPECT_EQ(one.pool->worker_count(), 0u);  // one lane never forks
  EXPECT_EQ(ResolveFanout(8, &pool).lanes, 4u);
  EXPECT_EQ(ResolveFanout(8, &pool).pool, &pool);
  EXPECT_EQ(ResolveFanout(8, &pool, 2).lanes, 2u);
  EXPECT_EQ(ResolveFanout(8, &pool, 0).lanes, 1u);
  EXPECT_EQ(pool.Lanes(100, 0), 4u);
  EXPECT_EQ(pool.Lanes(0, 2), 1u);
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
