// The run-control fields every layer of the system shares.
//
// Before this header, the spread, sampler, framework and workbench options
// each hand-copied the same four knobs (RNG seed, worker threads, run
// guard, trace) plus the thread-pool override, with the same defaults and
// the same documentation, and drivers forwarded them field by field.
// CommonRunOptions is that shared set defined once; the options structs
// inherit it, so existing `options.seed = ...` call sites are unchanged
// while the fields themselves have a single definition.
//
// Conventions shared by every consumer:
//   * `seed` keys all randomness off deterministic per-item streams
//     (Rng::ForStream(seed, i)), so results are reproducible and
//     thread-count invariant.
//   * `threads`: 1 = sequential, 0 = all hardware threads. Changing it
//     never changes results, only wall-clock.
//   * `guard` is polled from hot loops; a tripped budget drains the run
//     gracefully with a StopReason instead of aborting.
//   * `trace` collects phase spans and typed counters; null costs nothing.
//   * `pool` overrides ThreadPool::Shared() for tests and benchmarks.
#ifndef IMBENCH_COMMON_RUN_OPTIONS_H_
#define IMBENCH_COMMON_RUN_OPTIONS_H_

#include <cstdint>

namespace imbench {

class RunGuard;
class ThreadPool;
class Trace;

struct CommonRunOptions {
  // Stream base for deterministic per-item RNG streams.
  uint64_t seed = 1;
  // Worker threads for the parallel stages (1 = sequential, 0 = all
  // hardware threads). Results are identical for every value.
  uint32_t threads = 1;
  // Optional run budget, polled from hot loops. Not owned; may be null.
  RunGuard* guard = nullptr;
  // Optional phase-level trace (framework/trace.h). Not owned; may be null.
  Trace* trace = nullptr;
  // Pool override for tests and benchmarks; null = ThreadPool::Shared().
  // A stage that resolves to one lane uses neither (ResolveFanout).
  ThreadPool* pool = nullptr;
};

}  // namespace imbench

#endif  // IMBENCH_COMMON_RUN_OPTIONS_H_
