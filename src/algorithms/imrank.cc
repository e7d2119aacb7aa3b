#include "algorithms/imrank.h"

#include <algorithm>
#include <vector>

#include "algorithms/heuristics.h"
#include "common/check.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// One LFA sweep: walking ranks from last to first, each node sends
// W(u, v) of its remaining mass to every strictly higher-ranked in-neighbor
// u (capped so a node never allocates more than it holds).
void LfaSweep(const GraphView& graph, const std::vector<NodeId>& order,
              const std::vector<uint32_t>& position, std::vector<double>& mass,
              AdjScratch& scratch) {
  for (size_t i = order.size(); i-- > 1;) {
    const NodeId v = order[i];
    const AdjView in = graph.In(v, scratch);
    for (size_t j = 0; j < in.nodes.size(); ++j) {
      const NodeId u = in.nodes[j];
      if (position[u] >= i) continue;  // only higher-ranked absorb mass
      const double delta = in.weights[j] * mass[v];
      mass[u] += delta;
      mass[v] -= delta;
      if (mass[v] <= 0) {
        mass[v] = 0;
        break;
      }
    }
  }
}

}  // namespace

SelectionResult ImRank::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();
  AdjScratch scratch;

  // Initial ranking: weighted out-degree (the degree-discount-style cheap
  // ordering the IMRank paper starts from).
  std::vector<double> score(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    for (const double w : graph.Out(v, scratch).weights) score[v] += w;
  }
  std::vector<NodeId> order = RankByScore(score);
  std::vector<uint32_t> position(n);
  for (uint32_t i = 0; i < n; ++i) position[order[i]] = i;

  std::vector<double> mass(n);
  std::vector<NodeId> previous_topk;
  Span score_span(input.trace, "score");
  for (uint32_t round = 0; round < options_.scoring_rounds; ++round) {
    // Even a zero-round run returns a full top-k from the degree ordering,
    // so stopping here only costs ranking refinement, never seeds.
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(input.guard)) break;
    TraceAdd(input.trace, TraceCounter::kScoringRounds);
    std::fill(mass.begin(), mass.end(), 1.0);
    for (uint32_t sweep = 0; sweep < std::max<uint32_t>(1, options_.l);
         ++sweep) {
      if (GuardShouldStop(input.guard)) break;
      LfaSweep(graph, order, position, mass, scratch);
    }
    order = RankByScore(mass);
    for (uint32_t i = 0; i < n; ++i) position[order[i]] = i;

    if (options_.stopping == ImRankOptions::Stopping::kTopKSetUnchanged) {
      // Original (defective) criterion: compare the top-k *set* with the
      // previous round; it is frequently already stable after one round.
      std::vector<NodeId> topk(order.begin(), order.begin() + input.k);
      std::vector<NodeId> sorted = topk;
      std::sort(sorted.begin(), sorted.end());
      if (!previous_topk.empty() && sorted == previous_topk) break;
      previous_topk = std::move(sorted);
    }
  }

  score_span.Close();
  TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
           scratch.blocks_decoded);

  SelectionResult result;
  {
    Span select_span(input.trace, "select");
    result.seeds.assign(order.begin(), order.begin() + input.k);
  }
  result.stop_reason = GuardReason(input.guard);
  return result;
}

}  // namespace imbench
