#include "common/thread_pool.h"

#include <algorithm>

namespace imbench {
namespace {

// The pool of every one-lane stage: it has no workers, so its ParallelFor
// is always the inline loop and is safe to share between threads. Static
// storage, not the heap, so a one-lane stage allocates nothing here.
ThreadPool& InlinePool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(uint32_t workers) {
  workers_.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

uint32_t ThreadPool::Lanes(uint64_t count, uint32_t parallelism) const {
  const uint64_t width = worker_count() + uint64_t{1};
  const uint64_t wanted = parallelism == 0 ? width : parallelism;
  return static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min({wanted, count, width})));
}

void ThreadPool::WorkerLoop(uint32_t lane) {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return shutdown_ || job_id_ != seen; });
    if (shutdown_) return;
    seen = job_id_;
    // A job narrower than the pool leaves this worker parked. The caller
    // waits for every lane it counted, so a worker can skip a job only
    // when the job does not need it.
    if (lane >= job_lanes_) continue;
    lock.unlock();
    Drain(lane);
    lock.lock();
    if (--running_ == 0) done_.notify_one();
  }
}

void ThreadPool::Drain(uint32_t lane) {
  uint64_t i;
  while ((i = cursor_.fetch_add(1, std::memory_order_relaxed)) < count_) {
    (*fn_)(i, lane);
  }
}

void ThreadPool::ParallelFor(
    uint64_t count, uint32_t parallelism,
    const std::function<void(uint64_t item, uint32_t lane)>& fn) {
  const uint32_t lanes = Lanes(count, parallelism);
  bool fork = lanes > 1;
  if (fork) {
    // A nested call from inside a lane, or a second caller, finds the
    // pool busy and runs inline instead of waiting for it.
    std::lock_guard<std::mutex> lock(mutex_);
    fork = !busy_;
    if (fork) {
      busy_ = true;
      fn_ = &fn;
      count_ = count;
      cursor_.store(0, std::memory_order_relaxed);
      job_lanes_ = lanes;
      running_ = lanes - 1;
      ++job_id_;
    }
  }
  if (!fork) {
    for (uint64_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  wake_.notify_all();
  Drain(0);
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return running_ == 0; });
  busy_ = false;
  fn_ = nullptr;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool =
      new ThreadPool(std::max(1u, std::thread::hardware_concurrency()) - 1);
  return *pool;
}

uint32_t EffectiveThreads(uint32_t requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

Fanout ResolveFanout(uint32_t threads, ThreadPool* pool, uint64_t items) {
  const uint32_t wanted = static_cast<uint32_t>(
      std::min<uint64_t>(EffectiveThreads(threads), items));
  if (wanted <= 1) return Fanout{&InlinePool(), 1};
  ThreadPool& target = pool != nullptr ? *pool : ThreadPool::Shared();
  return Fanout{&target, target.Lanes(items, wanted)};
}

}  // namespace imbench
