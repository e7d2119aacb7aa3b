#include "algorithms/celfpp.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "diffusion/streaming.h"
#include "framework/trace.h"

namespace imbench {
namespace {

struct Entry {
  double mg1;        // gain w.r.t. current S
  double mg2;        // gain w.r.t. S ∪ {prev_best}
  NodeId node;
  NodeId prev_best;  // cur_best at the time mg2 was computed
  uint32_t flag;     // |S| when mg1 was last made current

  friend bool operator<(const Entry& a, const Entry& b) {
    if (a.mg1 != b.mg1) return a.mg1 < b.mg1;
    return a.node > b.node;
  }
};

}  // namespace

SelectionResult CelfPlusPlus::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  // One live stream through the scalar cascade serves every estimate.
  StreamingScratch scratch(graph.num_nodes(), input.seed);

  std::vector<NodeId> seeds;
  double current_spread = 0;  // σ(S)
  NodeId cur_best = kInvalidNode;
  double cur_best_mg1 = -1;

  // One simulation batch yields both spreads: each run simulates S∪{v} and
  // then *continues* the same cascade from cur_best, so the second value
  // is a valid sample of Γ(S∪{v}∪{cur_best}) at marginal extra cost (the
  // trick the reference implementation uses; without it CELF++ would do
  // twice CELF's work per lookup and M1 could never hold). With no
  // cur_best the continuation is empty and both values are σ(S∪{v}).
  // Means are over the simulations that actually ran, so a truncated
  // batch still yields an unbiased (just noisier) estimate.
  std::vector<NodeId> candidate;
  auto estimate_pair = [&](NodeId v, double& spread_v,
                           double& spread_v_best) {
    candidate = seeds;
    candidate.push_back(v);
    const std::span<const NodeId> continuation =
        cur_best != kInvalidNode ? std::span<const NodeId>(&cur_best, 1)
                                 : std::span<const NodeId>();
    const SpreadPair pair = scratch.EstimatePair(
        graph, input.diffusion, candidate, continuation, options_.simulations,
        input.guard, input.trace);
    spread_v = pair.base.mean;
    spread_v_best = pair.extended.mean;
  };

  // Initial pass: mg1 = σ({v}); mg2 = σ({v, cur_best}) − σ({cur_best})
  // where σ({cur_best}) = cur_best's mg1 (S is empty).
  Span select_span(input.trace, "select");
  std::vector<Entry> heap;
  heap.reserve(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(input.guard)) break;
    TraceAdd(input.trace, TraceCounter::kNodeLookups);
    const bool with_best = cur_best != kInvalidNode;
    double spread_v = 0, spread_v_best = 0;
    estimate_pair(v, spread_v, spread_v_best);
    const double mg1 = spread_v;
    const double mg2 = with_best ? spread_v_best - cur_best_mg1 : mg1;
    heap.push_back(Entry{mg1, mg2, v, cur_best, 0});
    if (mg1 > cur_best_mg1) {
      cur_best_mg1 = mg1;
      cur_best = v;
    }
  }
  std::make_heap(heap.begin(), heap.end());

  NodeId last_seed = kInvalidNode;
  while (seeds.size() < input.k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    Entry top = heap.back();
    heap.pop_back();
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    const bool stopped = GuardShouldStop(input.guard);
    if (top.flag == seeds.size() || stopped) {
      // Fresh entry, or draining: take the stale upper bound and skip the
      // re-anchor simulations (their precision is moot for a partial run).
      seeds.push_back(top.node);
      last_seed = top.node;
      if (stopped) continue;
      // Re-anchor σ(S) with a fresh estimate rather than accumulating the
      // selected gains: the max of noisy estimates is biased upward, and
      // letting that bias build up deflates every subsequent re-evaluated
      // gain, degrading the lazy queue into near-exhaustive search.
      const SpreadEstimate anchor =
          scratch.Estimate(graph, input.diffusion, seeds,
                           options_.simulations, input.guard, input.trace);
      current_spread = anchor.mean;
      cur_best = kInvalidNode;
      cur_best_mg1 = -1;
      continue;
    }
    if (top.prev_best == last_seed && top.flag + 1 == seeds.size()) {
      // Pre-emption hit: the look-ahead gain is exactly mg w.r.t. new S —
      // no simulations needed (the saving CELF++ banks on).
      top.mg1 = top.mg2;
    } else {
      TraceAdd(input.trace, TraceCounter::kNodeLookups);
      TraceAdd(input.trace, TraceCounter::kQueueReevaluations);
      const bool with_best = cur_best != kInvalidNode;
      double spread_v = 0, spread_v_best = 0;
      estimate_pair(top.node, spread_v, spread_v_best);
      top.mg1 = spread_v - current_spread;
      top.prev_best = cur_best;
      // σ(S ∪ {cur_best}) = σ(S) + cur_best's mg1 — already known.
      top.mg2 = with_best
                    ? spread_v_best - (current_spread + cur_best_mg1)
                    : top.mg1;
    }
    top.flag = static_cast<uint32_t>(seeds.size());
    if (top.mg1 > cur_best_mg1) {
      cur_best_mg1 = top.mg1;
      cur_best = top.node;
    }
    heap.push_back(top);
    std::push_heap(heap.begin(), heap.end());
  }

  SelectionResult result;
  result.seeds = std::move(seeds);
  result.stop_reason = GuardReason(input.guard);
  result.internal_spread_estimate = current_spread;
  return result;
}

}  // namespace imbench
