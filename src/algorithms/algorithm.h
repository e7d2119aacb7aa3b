// Common interface implemented by every benchmarked IM technique.
//
// Algorithms receive an immutable weighted graph plus the diffusion model
// and return k seeds together with their own internal spread estimate
// (which, for the RR-set techniques, is the *extrapolated* value their
// reference implementations print — see myth M4). The benchmarking
// framework always re-evaluates the returned seeds with 10K MC simulations
// so all techniques are compared from the same standpoint (Sec. 5.1).
#ifndef IMBENCH_ALGORITHMS_ALGORITHM_H_
#define IMBENCH_ALGORITHMS_ALGORITHM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "diffusion/cascade.h"
#include "framework/query_context.h"
#include "framework/run_guard.h"
#include "graph/graph.h"

namespace imbench {

// Inputs to a seed-selection run: the shared query context (graph,
// diffusion model, run controls — see framework/query_context.h) plus the
// seed count. All randomness keys off context.seed via per-item streams,
// so runs are reproducible and thread-count invariant; algorithms poll
// context.guard from hot loops and return best-effort partial seeds with a
// StopReason when it trips. Work is counted only through context.trace
// (TraceAdd with a TraceCounter; kNodeLookups is the Appendix C metric).
struct SelectionInput : QueryContext {
  uint32_t k = 0;
};

// Output of a seed-selection run.
struct SelectionResult {
  std::vector<NodeId> seeds;
  // The algorithm's own estimate of σ(seeds); 0 when the technique does not
  // produce one. For TIM+/IMM this is the coverage-extrapolated spread.
  double internal_spread_estimate = 0;
  // Why the run stopped early; kNone for a complete run. kMemory covers
  // both a RunBudget heap cap and the RR-set-family entry safety valves
  // (reported as "Crashed" in the paper's tables).
  StopReason stop_reason = StopReason::kNone;

  bool complete() const { return stop_reason == StopReason::kNone; }
};

// Base class for all IM techniques (the M of Alg. 3).
class ImAlgorithm {
 public:
  virtual ~ImAlgorithm() = default;

  virtual std::string name() const = 0;
  virtual bool Supports(DiffusionKind kind) const = 0;

  // Selects input.k seeds. Must be callable repeatedly and from any thread
  // as long as each call uses a distinct instance or is serialized.
  virtual SelectionResult Select(const SelectionInput& input) = 0;
};

}  // namespace imbench

#endif  // IMBENCH_ALGORITHMS_ALGORITHM_H_
