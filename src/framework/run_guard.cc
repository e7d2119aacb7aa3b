#include "framework/run_guard.h"

#include <csignal>

#include "framework/memory.h"

namespace imbench {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemory:
      return "memory";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kFault:
      return "fault";
  }
  return "?";
}

bool ParseStopReason(std::string_view name, StopReason* reason) {
  // The enumerators run from 0 without gaps; the first value past the last
  // one is the switch's "?".
  for (uint8_t v = 0;; ++v) {
    const StopReason candidate = static_cast<StopReason>(v);
    const std::string_view candidate_name = StopReasonName(candidate);
    if (candidate_name == "?") return false;
    if (candidate_name == name) {
      *reason = candidate;
      return true;
    }
  }
}

RunGuard::RunGuard(const RunBudget& budget)
    : budget_(budget),
      baseline_heap_bytes_(CurrentHeapBytes()),
      armed_(true) {}

bool RunGuard::CheckNow() {
  const double now = timer_.Seconds();
  // Adapt the stride toward one full check per ~0.5–2 ms of guarded work:
  // hot micro-loops grow the stride (cheap polls), coarse loops shrink it
  // back to 1 so a near-deadline trip is not missed by a long countdown.
  const double delta = now - last_check_seconds_;
  last_check_seconds_ = now;
  if (delta < 0.0005 && stride_ < kMaxStride) {
    stride_ *= 2;
  } else if (delta > 0.002 && stride_ > 1) {
    stride_ /= 2;
  }
  countdown_ = stride_;

  if (budget_.cancel != nullptr &&
      budget_.cancel->load(std::memory_order_relaxed)) {
    reason_ = StopReason::kCancelled;
  } else if (now >= budget_.deadline_seconds) {
    reason_ = StopReason::kDeadline;
  } else if (budget_.max_heap_bytes > 0 &&
             CurrentHeapBytes() >
                 baseline_heap_bytes_ + budget_.max_heap_bytes) {
    reason_ = StopReason::kMemory;
  }
  return reason_ != StopReason::kNone;
}

namespace {

std::atomic<bool> g_sigint_cancel{false};

extern "C" void SigintCancelHandler(int) {
  // Raise the flag and restore the default disposition so a second Ctrl-C
  // kills the process the usual way. Both calls are async-signal-safe.
  g_sigint_cancel.store(true, std::memory_order_relaxed);
  std::signal(SIGINT, SIG_DFL);
}

extern "C" void ServeDrainHandler(int sig) {
  // Same drain flag as SIGINT, but both shutdown signals restore their
  // default disposition so a repeated signal kills the process.
  g_sigint_cancel.store(true, std::memory_order_relaxed);
  std::signal(sig, SIG_DFL);
}

}  // namespace

const std::atomic<bool>* SigintCancelFlag() { return &g_sigint_cancel; }

void InstallSigintCancel() { std::signal(SIGINT, SigintCancelHandler); }

void InstallServeSignalHandlers() {
  std::signal(SIGINT, ServeDrainHandler);
  std::signal(SIGTERM, ServeDrainHandler);
}

void SetSigintCancelForTest(bool value) {
  g_sigint_cancel.store(value, std::memory_order_relaxed);
}

}  // namespace imbench
