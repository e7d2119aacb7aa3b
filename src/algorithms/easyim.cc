#include "algorithms/easyim.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "diffusion/streaming.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult EasyIm::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();
  // One live Rng for the candidate-validation simulations.
  StreamingScratch scratch(n, input.seed);

  std::vector<uint8_t> is_seed(n, 0);
  // One score per node — the entire working state of the algorithm.
  std::vector<double> score(n, 0.0);
  std::vector<double> prev(n, 0.0);

  // ℓ sweeps of Γ_t(v) = Σ_{u ∈ Out(v)} W(v,u) · (1 + Γ_{t-1}(u)),
  // skipping seeds (their influence is already banked).
  AdjScratch adj_scratch;
  auto recompute_scores = [&]() {
    std::fill(prev.begin(), prev.end(), 0.0);
    for (uint32_t t = 0;
         t < options_.path_length && !GuardShouldStop(input.guard); ++t) {
      for (NodeId v = 0; v < n; ++v) {
        if (is_seed[v]) {
          score[v] = 0.0;
          continue;
        }
        double sum = 0;
        const AdjView out = graph.Out(v, adj_scratch);
        for (size_t i = 0; i < out.nodes.size(); ++i) {
          const NodeId u = out.nodes[i];
          if (is_seed[u]) continue;
          sum += out.weights[i] * (1.0 + prev[u]);
        }
        score[v] = sum;
      }
      prev.swap(score);
    }
    score.swap(prev);
    TraceAdd(input.trace, TraceCounter::kScoringRounds);
  };

  SelectionResult result;
  Span select_span(input.trace, "select");
  std::vector<NodeId> candidate_set;
  std::vector<NodeId> with_candidate;
  double current_spread = 0;
  while (result.seeds.size() < input.k) {
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardStopped(input.guard)) break;
    // No span per round: `select` times them all, kScoringRounds counts
    // them, and the span count of a traced run stays the same for every k.
    recompute_scores();
    // Collect the top-c scorers.
    const uint32_t c = std::max<uint32_t>(1, options_.candidates);
    candidate_set.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (is_seed[v]) continue;
      if (candidate_set.size() < c) {
        candidate_set.push_back(v);
        std::push_heap(candidate_set.begin(), candidate_set.end(),
                       [&](NodeId a, NodeId b) { return score[a] > score[b]; });
      } else if (score[v] > score[candidate_set.front()]) {
        std::pop_heap(candidate_set.begin(), candidate_set.end(),
                      [&](NodeId a, NodeId b) { return score[a] > score[b]; });
        candidate_set.back() = v;
        std::push_heap(candidate_set.begin(), candidate_set.end(),
                       [&](NodeId a, NodeId b) { return score[a] > score[b]; });
      }
    }
    NodeId best = kInvalidNode;
    if (options_.simulations == 0 || candidate_set.size() == 1) {
      // Pure score argmax.
      double best_score = -1;
      for (const NodeId v : candidate_set) {
        if (score[v] > best_score) {
          best_score = score[v];
          best = v;
        }
      }
    } else {
      // Validate candidates with r MC simulations each.
      double best_spread = -1;
      for (const NodeId v : candidate_set) {
        TraceAdd(input.trace, TraceCounter::kGuardPolls);
        if (GuardShouldStop(input.guard)) break;
        with_candidate = result.seeds;
        with_candidate.push_back(v);
        TraceAdd(input.trace, TraceCounter::kNodeLookups);
        const SpreadEstimate est =
            scratch.Estimate(graph, input.diffusion, with_candidate,
                             options_.simulations, input.guard, input.trace);
        if (est.mean > best_spread) {
          best_spread = est.mean;
          best = v;
        }
      }
      if (best == kInvalidNode) {
        // Stopped before validating anyone: fall back to the score argmax
        // so this round still yields a best-effort pick.
        double best_score = -1;
        for (const NodeId v : candidate_set) {
          if (score[v] > best_score) {
            best_score = score[v];
            best = v;
          }
        }
      } else {
        current_spread = best_spread;
      }
    }
    if (best == kInvalidNode) break;
    is_seed[best] = 1;
    result.seeds.push_back(best);
  }
  TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
           adj_scratch.blocks_decoded);
  result.stop_reason = GuardReason(input.guard);
  result.internal_spread_estimate = current_spread;
  return result;
}

}  // namespace imbench
