#include "algorithms/greedy.h"

#include "common/check.h"
#include "diffusion/streaming.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult Greedy::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  // One live Rng across the whole greedy scan, reusing the
  // cascade scratch (the classic Kempe et al. estimator).
  StreamingScratch scratch(graph.num_nodes(), input.seed);

  SelectionResult result;
  Span select_span(input.trace, "select");
  std::vector<NodeId> candidate;  // S ∪ {v} scratch
  double current_spread = 0;
  while (result.seeds.size() < input.k) {
    NodeId best = kInvalidNode;
    double best_gain = -1;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      TraceAdd(input.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(input.guard)) break;
      bool already_seed = false;
      for (const NodeId s : result.seeds) already_seed |= (s == v);
      if (already_seed) continue;
      candidate = result.seeds;
      candidate.push_back(v);
      TraceAdd(input.trace, TraceCounter::kNodeLookups);
      const SpreadEstimate estimate =
          scratch.Estimate(graph, input.diffusion, candidate,
                           options_.simulations, input.guard, input.trace);
      const double gain = estimate.mean - current_spread;
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    if (GuardStopped(input.guard)) {
      // Keep the best candidate scanned so far: even a pre-deadline sliver of
      // the first round yields a non-empty best-effort seed set.
      if (best != kInvalidNode) {
        result.seeds.push_back(best);
        current_spread += best_gain;
      }
      break;
    }
    IMBENCH_CHECK(best != kInvalidNode);
    result.seeds.push_back(best);
    current_spread += best_gain;
  }
  result.stop_reason = GuardReason(input.guard);
  result.internal_spread_estimate = current_spread;
  return result;
}

}  // namespace imbench
