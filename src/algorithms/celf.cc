#include "algorithms/celf.h"

#include "algorithms/lazy_queue.h"
#include "common/check.h"
#include "diffusion/streaming.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult Celf::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  // One live Rng across all lazy re-evaluations.
  StreamingScratch scratch(graph.num_nodes(), input.seed);

  SelectionResult result;
  std::vector<NodeId> seeds;
  std::vector<NodeId> candidate;
  double current_spread = 0;

  // σ(S ∪ {v}) on the live stream, counting the simulations that ran.
  auto estimate = [&](NodeId v) {
    candidate = seeds;
    candidate.push_back(v);
    const SpreadEstimate est =
        scratch.Estimate(graph, input.diffusion, candidate,
                         options_.simulations, input.guard, input.trace);
    return est.mean;
  };
  auto marginal_gain = [&](NodeId v) { return estimate(v) - current_spread; };
  auto commit = [&](NodeId v) {
    // Re-estimate σ(S) once per selection so gains stay anchored; cheaper
    // than storing each candidate's absolute spread.
    current_spread = estimate(v);
    seeds.push_back(v);
  };
  {
    Span select_span(input.trace, "select");
    result.seeds = CelfSelect(graph.num_nodes(), input.k, marginal_gain,
                              commit, input.guard, input.trace);
  }
  result.stop_reason = GuardReason(input.guard);
  result.internal_spread_estimate = current_spread;
  return result;
}

}  // namespace imbench
