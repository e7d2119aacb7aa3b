#include "algorithms/static_greedy.h"

#include <vector>

#include "algorithms/lazy_queue.h"
#include "algorithms/snapshots.h"
#include "common/check.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult StaticGreedy::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const uint32_t R = options_.snapshots;
  Rng rng = Rng::ForStream(input.seed, 0);

  std::vector<Snapshot> snapshots;
  snapshots.reserve(R);
  {
    Span sample_span(input.trace, "sample");
    AdjScratch scratch;
    for (uint32_t i = 0; i < R; ++i) {
      TraceAdd(input.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(input.guard)) break;
      snapshots.push_back(SampleSnapshot(graph, rng, scratch));
      TraceAdd(input.trace, TraceCounter::kSnapshots);
    }
    TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
             scratch.blocks_decoded);
  }
  // Work with however many snapshots were actually sampled; averaging by
  // the real count keeps the estimates unbiased on a truncated run.
  const uint32_t num_snapshots = static_cast<uint32_t>(snapshots.size());
  if (num_snapshots == 0) {
    SelectionResult result;
    result.stop_reason = GuardReason(input.guard);
    return result;
  }

  // covered[i][v]: v is already reached by the seed set in snapshot i.
  std::vector<std::vector<uint8_t>> covered(
      num_snapshots, std::vector<uint8_t>(graph.num_nodes(), 0));
  // Epoch-stamped BFS scratch shared across snapshots.
  std::vector<uint32_t> visited(graph.num_nodes(), 0);
  uint32_t epoch = 0;
  std::vector<NodeId> queue;

  // Number of uncovered nodes reachable from v in snapshot i.
  auto reach_uncovered = [&](uint32_t i, NodeId v) -> uint32_t {
    const Snapshot& snap = snapshots[i];
    const auto& cov = covered[i];
    if (cov[v]) return 0;
    ++epoch;
    queue.clear();
    queue.push_back(v);
    visited[v] = epoch;
    uint32_t count = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      ++count;
      for (uint32_t e = snap.offsets[u]; e < snap.offsets[u + 1]; ++e) {
        const NodeId w = snap.targets[e];
        if (visited[w] == epoch || cov[w]) continue;
        visited[w] = epoch;
        queue.push_back(w);
      }
    }
    return count;
  };

  auto marginal_gain = [&](NodeId v) {
    uint64_t total = 0;
    for (uint32_t i = 0; i < num_snapshots; ++i) {
      total += reach_uncovered(i, v);
    }
    return static_cast<double>(total) / static_cast<double>(num_snapshots);
  };
  double selected_spread = 0;
  auto commit = [&](NodeId v) {
    uint64_t total = 0;
    for (uint32_t i = 0; i < num_snapshots; ++i) {
      const Snapshot& snap = snapshots[i];
      auto& cov = covered[i];
      if (cov[v]) continue;
      queue.clear();
      queue.push_back(v);
      cov[v] = 1;
      for (size_t head = 0; head < queue.size(); ++head) {
        const NodeId u = queue[head];
        ++total;
        for (uint32_t e = snap.offsets[u]; e < snap.offsets[u + 1]; ++e) {
          const NodeId w = snap.targets[e];
          if (cov[w]) continue;
          cov[w] = 1;
          queue.push_back(w);
        }
      }
    }
    selected_spread +=
        static_cast<double>(total) / static_cast<double>(num_snapshots);
  };

  SelectionResult result;
  {
    Span select_span(input.trace, "select");
    result.seeds = CelfSelect(graph.num_nodes(), input.k, marginal_gain,
                              commit, input.guard, input.trace);
  }
  result.internal_spread_estimate = selected_spread;
  result.stop_reason = GuardReason(input.guard);
  return result;
}

}  // namespace imbench
