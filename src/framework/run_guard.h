// Enforceable run budgets (the paper's 40-hour / 256 GB cutoffs, Sec. 5).
//
// A RunBudget caps one seed-selection run by wall-clock deadline, working
// heap bytes, and an external cancel flag (Ctrl-C). Algorithms poll a
// RunGuard from their hot loops via ShouldStop(); when a budget trips they
// stop gracefully and return their best-effort partial seed set tagged with
// the StopReason. This makes DNF cells cost *at most* the budget instead of
// "however long the run takes" — the difference between an advisory and an
// enforceable cutoff.
//
// ShouldStop() is amortized: most calls are a single counter decrement.
// Every stride-th call reads the clock / heap counters and adapts the
// stride so the expensive check happens roughly once per millisecond of
// work, whether the poll site is a micro-loop (one RR-set BFS step) or a
// macro-loop (one 10K-simulation marginal-gain estimate).
#ifndef IMBENCH_FRAMEWORK_RUN_GUARD_H_
#define IMBENCH_FRAMEWORK_RUN_GUARD_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string_view>

#include "common/timer.h"

namespace imbench {

// Why a guarded run stopped before completing its full workload.
enum class StopReason : uint8_t {
  kNone = 0,    // ran to completion
  kDeadline,    // wall-clock budget exhausted (paper: "DNF")
  kMemory,      // heap / RR-entry budget exhausted (paper: "Crashed")
  kCancelled,   // external cancel flag raised (Ctrl-C)
  kFault,       // injected transient fault (framework/fault.h); retryable
};

const char* StopReasonName(StopReason reason);
// Inverse of StopReasonName over every StopReason; false for any other
// text. The names live only in StopReasonName's switch.
bool ParseStopReason(std::string_view name, StopReason* reason);

// The retry/degradation policy's fault taxonomy: transient stops are
// worth retrying (the failure was a blip, not an exhausted budget), fatal
// stops drain the run — retrying a tripped deadline or heap cap would
// just trip it again, and a cancel means the user is waiting.
inline bool IsTransientStop(StopReason reason) {
  return reason == StopReason::kFault;
}

// Limits for one guarded run. Defaults are all "unlimited".
struct RunBudget {
  // Wall-clock seconds from the guard's construction.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  // Heap bytes above the level at the guard's construction; 0 = unlimited.
  uint64_t max_heap_bytes = 0;
  // External cancellation (e.g. SigintCancelFlag()); null = none.
  const std::atomic<bool>* cancel = nullptr;
};

// Cheap amortized budget poll. Construct armed with a budget right before
// the guarded work; a default-constructed guard is unarmed and never stops.
// Not thread-safe: one guard per selection run, polled from its thread.
// Copyable: a copy shares the deadline epoch, heap baseline and cancel
// flag but polls independently — parallel regions hand each worker lane a
// copy (see ParallelGuardState below) instead of sharing one guard.
class RunGuard {
 public:
  RunGuard() = default;  // unarmed
  explicit RunGuard(const RunBudget& budget);

  // True once any budget has tripped; the first true is sticky. Amortized
  // O(1): a full check runs only every stride-th call.
  bool ShouldStop() {
    if (reason_ != StopReason::kNone) return true;
    if (!armed_) return false;
    if (--countdown_ > 0) return false;
    return CheckNow();
  }

  bool stopped() const { return reason_ != StopReason::kNone; }
  StopReason reason() const { return reason_; }
  double elapsed_seconds() const { return timer_.Seconds(); }

  // Trips the guard manually (used when a non-guard limit, e.g. an RR-entry
  // cap, fires and the run should drain through the same path).
  void Trip(StopReason reason) {
    if (reason_ == StopReason::kNone) reason_ = reason;
  }

 private:
  // Bounds for the adaptive poll stride.
  static constexpr uint32_t kMaxStride = 4096;

  bool CheckNow();

  RunBudget budget_;
  Timer timer_;
  uint64_t baseline_heap_bytes_ = 0;
  uint32_t stride_ = 1;
  uint32_t countdown_ = 1;
  double last_check_seconds_ = 0;
  bool armed_ = false;
  StopReason reason_ = StopReason::kNone;
};

// Shared stop state for one parallel region (parallel RR-set generation,
// multi-threaded spread evaluation). RunGuard itself is single-threaded,
// so a region gives every worker lane its own *copy* of the parent guard
// plus this shared state: the first lane whose copy trips publishes the
// reason and raises the abort flag that drains every other lane. After the
// join, Propagate() forwards the verdict to the parent guard so the
// caller's subsequent polls observe the trip too.
class ParallelGuardState {
 public:
  explicit ParallelGuardState(RunGuard* parent) : parent_(parent) {}

  // Worker-lane copy of the parent guard (unarmed when there is none).
  RunGuard MakeLaneGuard() const {
    return parent_ != nullptr ? *parent_ : RunGuard();
  }

  // Cross-lane drain flag; cheap enough to poll from inner loops.
  const std::atomic<bool>* abort_flag() const { return &abort_; }
  bool aborted() const { return abort_.load(std::memory_order_relaxed); }
  StopReason reason() const {
    return reason_.load(std::memory_order_relaxed);
  }

  // Publishes a lane's trip; the first reason wins, and every lane that
  // polls the abort flag drains promptly.
  void Trip(StopReason reason) {
    StopReason expected = StopReason::kNone;
    reason_.compare_exchange_strong(expected, reason,
                                    std::memory_order_relaxed);
    abort_.store(true, std::memory_order_release);
  }

  // Forwards the published reason (if any) to the parent guard; call after
  // the lanes have joined. Transient injected faults are NOT forwarded: a
  // RunGuard trip is sticky, and the caller may retry the wave — the
  // engine reports the fault through its RrBatchResult instead.
  void Propagate() {
    const StopReason r = reason();
    if (parent_ != nullptr && r != StopReason::kNone && !IsTransientStop(r)) {
      parent_->Trip(r);
    }
  }

 private:
  RunGuard* parent_;
  std::atomic<bool> abort_{false};
  std::atomic<StopReason> reason_{StopReason::kNone};
};

// Null-tolerant helpers so algorithms can poll an optional guard without
// branching on nullptr at every site.
inline bool GuardShouldStop(RunGuard* guard) {
  return guard != nullptr && guard->ShouldStop();
}
inline bool GuardStopped(const RunGuard* guard) {
  return guard != nullptr && guard->stopped();
}
inline StopReason GuardReason(const RunGuard* guard) {
  return guard != nullptr ? guard->reason() : StopReason::kNone;
}

// Process-wide cancel flag for Ctrl-C draining. InstallSigintCancel()
// installs a SIGINT handler that raises the flag (first Ctrl-C: the current
// cell drains, journals flush, partial tables print) and then restores the
// default disposition (second Ctrl-C: die immediately). Idempotent.
const std::atomic<bool>* SigintCancelFlag();
void InstallSigintCancel();
// Serve-mode variant: raises the same flag on SIGINT *and* SIGTERM, so a
// service shutdown (systemd stop, container kill, Ctrl-C) drains the
// in-flight op, flushes the replay summary, and exits 0 instead of dying
// mid-query. A second signal of either kind kills the process.
void InstallServeSignalHandlers();
// Test hook: raise / clear the flag without delivering a signal.
void SetSigintCancelForTest(bool value);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_RUN_GUARD_H_
