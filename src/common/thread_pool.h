// The fork-join pool under every parallel stage of the benchmark (RR-set
// generation, Monte-Carlo spread evaluation, the exact oracle's sums).
//
// Design notes:
//   * One job at a time. ParallelFor() publishes `count` items to a fixed
//     set of lanes and returns once every item has run. The items are
//     drained through a shared atomic cursor, so uneven item costs balance.
//   * Fixed lanes. Worker w always runs lane w + 1 and the caller runs
//     lane 0, so per-lane scratch is always touched by the same thread.
//   * Inline fallbacks. A call runs every item on the caller, as lane 0 in
//     index order, when it has one lane, when the pool has no workers, when
//     it is made from inside a lane, or when it finds the pool busy with
//     another caller's job. The one-lane path takes no lock.
//   * Determinism is the callers' contract, not the pool's: engines key
//     all randomness off the item index (`Rng::ForStream(seed, i)`) and
//     merge in index order, so which lane runs an item never affects
//     results.
#ifndef IMBENCH_COMMON_THREAD_POOL_H_
#define IMBENCH_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace imbench {

class ThreadPool {
 public:
  // Spawns `workers` threads, parked until a job arrives. Zero workers is
  // valid: ParallelFor() then runs everything inline on the caller.
  explicit ThreadPool(uint32_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t worker_count() const {
    return static_cast<uint32_t>(workers_.size());
  }

  // Lanes a ParallelFor(count, parallelism, ...) call fans out to:
  // min(parallelism, count, workers + 1), with parallelism 0 meaning
  // workers + 1; never less than 1.
  uint32_t Lanes(uint64_t count, uint32_t parallelism) const;

  // Runs fn(item, lane) for every item in [0, count) and returns once all
  // items have finished. `lane` < Lanes(count, parallelism) identifies the
  // executing lane, so callers can reuse per-lane scratch without locking.
  void ParallelFor(uint64_t count, uint32_t parallelism,
                   const std::function<void(uint64_t item, uint32_t lane)>& fn);

  // Process-wide pool sized to the hardware: hardware_concurrency - 1
  // workers, the caller of ParallelFor() being the remaining lane.
  // Intentionally leaked so worker shutdown never races static destructors.
  static ThreadPool& Shared();

 private:
  void WorkerLoop(uint32_t lane);
  // Runs the current job's items from the shared cursor as `lane`.
  void Drain(uint32_t lane);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;  // workers: a job was published
  std::condition_variable done_;  // caller: the worker lanes finished
  // Guarded by mutex_.
  bool shutdown_ = false;
  bool busy_ = false;        // a job is running
  uint64_t job_id_ = 0;      // bumped once per published job
  uint32_t job_lanes_ = 0;   // lanes of the current job
  uint32_t running_ = 0;     // worker lanes of the current job still going
  // The current job. Written under mutex_ before job_id_ is bumped and left
  // alone until running_ reaches 0, so a lane reads them without the lock.
  const std::function<void(uint64_t, uint32_t)>* fn_ = nullptr;
  uint64_t count_ = 0;
  std::atomic<uint64_t> cursor_{0};
};

// Resolves a --threads request: 0 means "all hardware threads", anything
// else is taken literally (values above the hardware count are clamped to
// the pool by ThreadPool::Lanes, and results are thread-count invariant).
uint32_t EffectiveThreads(uint32_t requested);

// The pool a parallel stage runs on and its lane count, resolved the one
// way every stage does it: EffectiveThreads(threads), clamped by
// Lanes(items, ...) of `pool`, or of ThreadPool::Shared() when `pool` is
// null. A stage that resolves to one lane gets a pool without workers and
// never builds the shared one, so a one-thread run starts no threads.
struct Fanout {
  ThreadPool* pool = nullptr;
  uint32_t lanes = 1;
};
Fanout ResolveFanout(
    uint32_t threads, ThreadPool* pool,
    uint64_t items = std::numeric_limits<uint64_t>::max());

}  // namespace imbench

#endif  // IMBENCH_COMMON_THREAD_POOL_H_
