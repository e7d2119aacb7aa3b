#include "framework/run_guard.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace imbench {
namespace {

TEST(RunGuardTest, UnarmedGuardNeverStops) {
  RunGuard guard;
  for (int i = 0; i < 100000; ++i) {
    EXPECT_FALSE(guard.ShouldStop());
  }
  EXPECT_FALSE(guard.stopped());
  EXPECT_EQ(guard.reason(), StopReason::kNone);
}

TEST(RunGuardTest, NullHelpersAreNoOps) {
  EXPECT_FALSE(GuardShouldStop(nullptr));
  EXPECT_FALSE(GuardStopped(nullptr));
  EXPECT_EQ(GuardReason(nullptr), StopReason::kNone);
}

TEST(RunGuardTest, ZeroDeadlineTripsImmediately) {
  RunBudget budget;
  budget.deadline_seconds = 0.0;
  RunGuard guard(budget);
  // The first stride worth of polls may pass; within a handful the clock
  // check fires.
  bool tripped = false;
  for (int i = 0; i < 10000 && !tripped; ++i) {
    tripped = guard.ShouldStop();
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(guard.stopped());
  EXPECT_EQ(guard.reason(), StopReason::kDeadline);
}

TEST(RunGuardTest, StaysTrippedAfterDeadline) {
  RunBudget budget;
  budget.deadline_seconds = 0.0;
  RunGuard guard(budget);
  while (!guard.ShouldStop()) {
  }
  // Once tripped, every subsequent poll reports stop without rechecking.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(guard.ShouldStop());
  }
  EXPECT_EQ(guard.reason(), StopReason::kDeadline);
}

TEST(RunGuardTest, CancelFlagTripsWithCancelledReason) {
  std::atomic<bool> cancel{false};
  RunBudget budget;
  budget.cancel = &cancel;
  RunGuard guard(budget);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_FALSE(guard.ShouldStop());
  }
  cancel.store(true, std::memory_order_relaxed);
  bool tripped = false;
  for (int i = 0; i < 1000000 && !tripped; ++i) {
    tripped = guard.ShouldStop();
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(guard.reason(), StopReason::kCancelled);
}

TEST(RunGuardTest, CancelTakesPriorityOverDeadline) {
  std::atomic<bool> cancel{true};
  RunBudget budget;
  budget.cancel = &cancel;
  budget.deadline_seconds = 0.0;  // also expired
  RunGuard guard(budget);
  EXPECT_TRUE(guard.ShouldStop());  // first poll runs a full check
  EXPECT_EQ(guard.reason(), StopReason::kCancelled);
}

TEST(RunGuardTest, MemoryCapTripsAfterLargeAllocation) {
  RunBudget budget;
  budget.max_heap_bytes = 1 << 20;  // 1 MiB above the baseline at arming
  RunGuard guard(budget);
  EXPECT_FALSE(guard.ShouldStop());
  // Allocate well past the cap; the tracked allocator sees this.
  std::vector<std::unique_ptr<std::vector<uint8_t>>> hoard;
  bool tripped = false;
  for (int i = 0; i < 64 && !tripped; ++i) {
    hoard.push_back(std::make_unique<std::vector<uint8_t>>(4 << 20, 0xAB));
    for (int j = 0; j < 100000 && !tripped; ++j) {
      tripped = guard.ShouldStop();
    }
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(guard.reason(), StopReason::kMemory);
}

TEST(RunGuardTest, TripForcesStop) {
  RunGuard guard;  // even an unarmed guard can be tripped externally
  EXPECT_FALSE(guard.stopped());
  guard.Trip(StopReason::kCancelled);
  EXPECT_TRUE(guard.stopped());
  EXPECT_TRUE(guard.ShouldStop());
  EXPECT_EQ(guard.reason(), StopReason::kCancelled);
}

TEST(RunGuardTest, ElapsedSecondsAdvances) {
  RunBudget budget;
  budget.deadline_seconds = 3600.0;
  RunGuard guard(budget);
  EXPECT_GE(guard.elapsed_seconds(), 0.0);
  EXPECT_FALSE(guard.ShouldStop());
}

TEST(RunGuardTest, StopReasonNames) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(StopReasonName(StopReason::kMemory), "memory");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
}

TEST(RunGuardTest, ParseStopReasonInvertsEveryName) {
  for (const StopReason reason :
       {StopReason::kNone, StopReason::kDeadline, StopReason::kMemory,
        StopReason::kCancelled, StopReason::kFault}) {
    StopReason parsed = StopReason::kNone;
    EXPECT_TRUE(ParseStopReason(StopReasonName(reason), &parsed));
    EXPECT_EQ(parsed, reason);
  }
  StopReason parsed = StopReason::kNone;
  EXPECT_FALSE(ParseStopReason("?", &parsed));
  EXPECT_FALSE(ParseStopReason("Fault", &parsed));
  EXPECT_FALSE(ParseStopReason("", &parsed));
}

TEST(RunGuardTest, SigintFlagSetAndClearedForTest) {
  SetSigintCancelForTest(true);
  EXPECT_TRUE(SigintCancelFlag()->load());
  SetSigintCancelForTest(false);
  EXPECT_FALSE(SigintCancelFlag()->load());
}

}  // namespace
}  // namespace imbench
