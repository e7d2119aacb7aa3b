// Deterministic fault injection: the chaos half of the robustness layer.
//
// Production code plants named *fault sites* at its real failure edges
// (arena growth, sampler lanes, epoch rebuilds, checkpoint/workload IO) by
// calling FaultFire(site). In a normal run the process-global FaultInjector
// is disarmed and a site costs one relaxed atomic load — nothing fires,
// ever. A chaos run arms a FaultPlan: a list of rules that make a site
// fail on its Nth hit (a contiguous window of hits) or per-hit with a
// probability drawn from a dedicated RNG stream keyed by (plan seed, site,
// hit number). Because the draw depends only on that triple — never on
// scheduling — a plan's verdict for any (site, hit) pair is a pure
// function of the plan, so every chaos run is bit-replayable.
//
// A firing site simulates a failure as a StopReason: StopReason::kFault is
// the *transient* fault the self-healing service retries (a blip — failed
// allocation, lost lane), while kDeadline/kMemory/kCancelled let a plan
// simulate a fatal budget trip at an exact site and hit, which is how the
// chaos suite drives the guard-trip-mid-repair paths deterministically.
// The recovery contract (tests/chaos_test.cc): under every plan whose
// faults are transient, served seeds are byte-identical to the fault-free
// run, because every recovery path is a deterministic rebuild of the same
// per-index RR streams.
#ifndef IMBENCH_FRAMEWORK_FAULT_H_
#define IMBENCH_FRAMEWORK_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "framework/run_guard.h"

namespace imbench {

// Canonical site names, one per planted failure edge. Sites are plain
// strings so tests and tools can add ad-hoc sites without touching this
// header, but production code should use these constants.
namespace faultsite {
// Arena growth in RrCollection consumers: the next set/batch append to the
// corpus fails (simulated OOM). Planted per set in the RR sampler's merge,
// before the set is appended.
inline constexpr std::string_view kRrArenaGrow = "rr_arena_grow";
// RR sampler lane: a lane dies before drawing its next set. The wave
// drains and the merged corpus stays a prefix of the deterministic
// sequence.
inline constexpr std::string_view kSamplerLane = "rr_sampler_lane";
// Per-set regeneration inside the warm-corpus repair loop.
inline constexpr std::string_view kServiceRepair = "service_repair";
// EpochGraphStore rebuild: the mutation's successor graph fails to
// publish; the store is left on the old epoch (all-or-nothing).
inline constexpr std::string_view kEpochRebuild = "epoch_rebuild";
// Workload file IO (ReadWorkloadFile).
inline constexpr std::string_view kWorkloadIo = "workload_io";
// Checkpoint writes tear (half the payload reaches disk) / reads fail.
inline constexpr std::string_view kCheckpointWrite = "checkpoint_write";
inline constexpr std::string_view kCheckpointRead = "checkpoint_read";
// .imgrf open path: the header read / the mmap fails. im_run --keep-going
// degrades to edge-list/dataset loading when either fires.
inline constexpr std::string_view kGraphFileRead = "graph_file_read";
inline constexpr std::string_view kGraphFileMap = "graph_file_map";
}  // namespace faultsite

// One arming rule. A rule fires on a hit h of its site when
//   * the count window matches: fire_on_hit <= h < fire_on_hit + max_fires
//     (hit numbers are 1-based per site, counted across the whole armed
//     lifetime), or
//   * probability > 0 and the deterministic per-(site, hit) draw from the
//     plan's RNG stream lands below it.
struct FaultRule {
  std::string site;
  uint64_t fire_on_hit = 0;  // 1-based first firing hit; 0 = disabled
  uint64_t max_fires = 1;    // window width for the count mode
  double probability = 0;    // per-hit firing probability; 0 = disabled
  // The failure this site simulates when the rule fires. kFault is the
  // transient class (retried by the service); the budget reasons simulate
  // fatal guard trips at an exact site.
  StopReason reason = StopReason::kFault;
};

struct FaultPlan {
  uint64_t seed = 0;  // dedicated RNG stream base for probabilistic rules
  std::vector<FaultRule> rules;
};

// Parses the CLI plan spec: comma-separated rules of the form
//   site:hit=N[:fires=M][:reason=R]  or  site:p=0.01[:reason=R]
// with R in {fault, deadline, memory, cancelled} (default fault), e.g.
//   --fault-plan=rr_arena_grow:hit=1:fires=2,rr_sampler_lane:p=0.001
// Returns false and describes the problem in *error on a malformed spec.
bool ParseFaultPlan(const std::string& spec, FaultPlan* plan,
                    std::string* error);

// Process-global injector. Arm()/Disarm() are for test/driver setup; sites
// call the free FaultFire() helper. Thread-safe: sites are hit from
// sampler lanes, so hit accounting takes a mutex — but only when armed;
// the disarmed fast path is a single relaxed load.
class FaultInjector {
 public:
  static FaultInjector& Global();

  // Replaces any previous plan and resets all per-site hit/fire counts.
  void Arm(FaultPlan plan);
  void Disarm();
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Records one hit of `site` and reports whether an armed rule fires on
  // it; on firing, *reason (when non-null) receives the simulated failure.
  bool Fire(std::string_view site, StopReason* reason);

  // Chaos-test observability: hits/fires recorded for a site since Arm().
  uint64_t Hits(std::string_view site) const;
  uint64_t Fires(std::string_view site) const;

 private:
  FaultInjector() = default;

  struct SiteState {
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  mutable std::mutex mutex_;
  std::atomic<bool> armed_{false};
  FaultPlan plan_;
  std::map<std::string, SiteState, std::less<>> sites_;
};

// The one call a fault site makes. Free function so hot paths read as
//   if (FaultFire(faultsite::kRrArenaGrow, &reason)) { ... }
// and cost one relaxed load when no plan is armed.
inline bool FaultFire(std::string_view site, StopReason* reason = nullptr) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.armed()) return false;
  return injector.Fire(site, reason);
}

// RAII plan arming for tests: arms on construction, disarms on
// destruction, so a failing EXPECT cannot leak an armed plan into the next
// test case.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) {
    FaultInjector::Global().Arm(std::move(plan));
  }
  ~ScopedFaultPlan() { FaultInjector::Global().Disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_FAULT_H_
