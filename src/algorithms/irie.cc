#include "algorithms/irie.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult Irie::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();

  std::vector<double> rank(n, 1.0);
  std::vector<double> next(n, 1.0);
  std::vector<double> ap(n, 0.0);  // AP(u, S): prob. u already activated
  std::vector<uint8_t> is_seed(n, 0);

  // Bounded-hop AP propagation from a newly selected seed: frontier
  // probabilities combine as independent activations.
  std::vector<NodeId> frontier, next_frontier;
  std::vector<double> reach_prob(n, 0.0);
  std::vector<uint32_t> touched_stamp(n, 0);
  uint32_t epoch = 0;
  AdjScratch scratch;

  auto propagate_ap = [&](NodeId seed) {
    ++epoch;
    frontier.assign(1, seed);
    reach_prob[seed] = 1.0;
    touched_stamp[seed] = epoch;
    ap[seed] = 1.0;
    for (uint32_t hop = 0; hop < options_.ap_hops; ++hop) {
      next_frontier.clear();
      for (const NodeId u : frontier) {
        const double pu = reach_prob[u];
        const AdjView out = graph.Out(u, scratch);
        for (size_t i = 0; i < out.nodes.size(); ++i) {
          const NodeId v = out.nodes[i];
          if (is_seed[v]) continue;
          const double via = pu * out.weights[i];
          if (touched_stamp[v] != epoch) {
            touched_stamp[v] = epoch;
            reach_prob[v] = 0.0;
            next_frontier.push_back(v);
          }
          // Independent combination of activation paths.
          reach_prob[v] = 1.0 - (1.0 - reach_prob[v]) * (1.0 - via);
        }
      }
      for (const NodeId v : next_frontier) {
        ap[v] = 1.0 - (1.0 - ap[v]) * (1.0 - reach_prob[v]);
      }
      frontier.swap(next_frontier);
    }
  };

  SelectionResult result;
  Span select_span(input.trace, "select");
  while (result.seeds.size() < input.k) {
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(input.guard)) break;
    // Rank iteration under the current AP discounts.
    std::fill(rank.begin(), rank.end(), 1.0);
    for (uint32_t iter = 0;
         iter < options_.iterations && !GuardShouldStop(input.guard); ++iter) {
      for (NodeId u = 0; u < n; ++u) {
        if (is_seed[u]) {
          next[u] = 0.0;
          continue;
        }
        double sum = 0;
        const AdjView out = graph.Out(u, scratch);
        for (size_t i = 0; i < out.nodes.size(); ++i) {
          sum += out.weights[i] * rank[out.nodes[i]];
        }
        next[u] = (1.0 - ap[u]) * (1.0 + options_.alpha * sum);
      }
      rank.swap(next);
    }
    TraceAdd(input.trace, TraceCounter::kNodeLookups);
    TraceAdd(input.trace, TraceCounter::kScoringRounds);

    NodeId best = kInvalidNode;
    double best_rank = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (!is_seed[u] && rank[u] > best_rank) {
        best_rank = rank[u];
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    is_seed[best] = 1;
    result.seeds.push_back(best);
    // Rank iteration already ran (possibly truncated); picking from it is
    // valid, but don't start the AP propagation for a pick we won't refine.
    if (GuardShouldStop(input.guard)) break;
    propagate_ap(best);
  }
  TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
           scratch.blocks_decoded);
  result.stop_reason = GuardReason(input.guard);
  return result;
}

}  // namespace imbench
