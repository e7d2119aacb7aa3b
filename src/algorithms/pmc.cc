#include "algorithms/pmc.h"

#include <algorithm>
#include <vector>

#include "algorithms/lazy_queue.h"
#include "algorithms/snapshots.h"
#include "common/check.h"
#include "framework/trace.h"
#include "graph/scc.h"

namespace imbench {
namespace {

// An SCC-contracted snapshot: DAG over components plus component sizes.
struct ContractedSnapshot {
  std::vector<NodeId> component;       // node -> component id
  std::vector<uint32_t> comp_size;     // component -> member count
  std::vector<uint32_t> dag_offsets;   // CSR over components
  std::vector<NodeId> dag_targets;
  std::vector<uint8_t> dead;           // component already reached by seeds
};

ContractedSnapshot Contract(NodeId num_nodes, const Snapshot& snap) {
  ContractedSnapshot out;
  const SccResult scc =
      StronglyConnectedComponents(num_nodes, snap.offsets, snap.targets);
  out.component = scc.component;
  out.comp_size.assign(scc.num_components, 0);
  for (NodeId v = 0; v < num_nodes; ++v) ++out.comp_size[out.component[v]];

  // Build the condensation DAG, deduplicating multi-edges between the same
  // component pair with an epoch stamp.
  std::vector<uint32_t> degree(scc.num_components, 0);
  std::vector<std::pair<NodeId, NodeId>> comp_edges;
  for (NodeId u = 0; u < num_nodes; ++u) {
    for (uint32_t e = snap.offsets[u]; e < snap.offsets[u + 1]; ++e) {
      const NodeId cu = out.component[u];
      const NodeId cv = out.component[snap.targets[e]];
      if (cu != cv) comp_edges.emplace_back(cu, cv);
    }
  }
  std::sort(comp_edges.begin(), comp_edges.end());
  comp_edges.erase(std::unique(comp_edges.begin(), comp_edges.end()),
                   comp_edges.end());
  for (const auto& [cu, cv] : comp_edges) ++degree[cu];
  out.dag_offsets.assign(scc.num_components + 1, 0);
  for (NodeId c = 0; c < scc.num_components; ++c) {
    out.dag_offsets[c + 1] = out.dag_offsets[c] + degree[c];
  }
  out.dag_targets.resize(comp_edges.size());
  std::vector<uint32_t> cursor(out.dag_offsets.begin(),
                               out.dag_offsets.end() - 1);
  for (const auto& [cu, cv] : comp_edges) out.dag_targets[cursor[cu]++] = cv;
  out.dead.assign(scc.num_components, 0);
  return out;
}

}  // namespace

SelectionResult Pmc::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const uint32_t R = options_.snapshots;
  Rng rng = Rng::ForStream(input.seed, 0);

  std::vector<ContractedSnapshot> snapshots;
  snapshots.reserve(R);
  {
    Span sample_span(input.trace, "sample");
    AdjScratch scratch;
    for (uint32_t i = 0; i < R; ++i) {
      TraceAdd(input.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(input.guard)) break;
      const Snapshot snap = SampleSnapshot(graph, rng, scratch);
      snapshots.push_back(Contract(graph.num_nodes(), snap));
      TraceAdd(input.trace, TraceCounter::kSnapshots);
    }
    TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
             scratch.blocks_decoded);
  }
  // Average over the snapshots actually sampled; a truncated run keeps the
  // estimates unbiased, just noisier.
  const uint32_t num_snapshots = static_cast<uint32_t>(snapshots.size());
  if (num_snapshots == 0) {
    SelectionResult result;
    result.stop_reason = GuardReason(input.guard);
    return result;
  }

  // Shared epoch-stamped BFS scratch over components (sized to the largest
  // component count).
  NodeId max_comps = 0;
  for (const auto& s : snapshots) {
    max_comps = std::max(max_comps,
                         static_cast<NodeId>(s.comp_size.size()));
  }
  std::vector<uint32_t> visited(max_comps, 0);
  uint32_t epoch = 0;
  std::vector<NodeId> queue;

  // Nodes (weighted by component size) reachable from v and still alive in
  // snapshot i. When `kill` is set, the reached components become dead.
  auto walk = [&](ContractedSnapshot& snap, NodeId v,
                  bool kill) -> uint32_t {
    const NodeId root = snap.component[v];
    if (snap.dead[root]) return 0;
    ++epoch;
    queue.clear();
    queue.push_back(root);
    visited[root] = epoch;
    uint32_t count = 0;
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId c = queue[head];
      count += snap.comp_size[c];
      if (kill) snap.dead[c] = 1;
      for (uint32_t e = snap.dag_offsets[c]; e < snap.dag_offsets[c + 1];
           ++e) {
        const NodeId t = snap.dag_targets[e];
        if (visited[t] == epoch || snap.dead[t]) continue;
        visited[t] = epoch;
        queue.push_back(t);
      }
    }
    return count;
  };

  auto marginal_gain = [&](NodeId v) {
    uint64_t total = 0;
    for (auto& snap : snapshots) total += walk(snap, v, /*kill=*/false);
    return static_cast<double>(total) / static_cast<double>(num_snapshots);
  };
  double selected_spread = 0;
  auto commit = [&](NodeId v) {
    uint64_t total = 0;
    for (auto& snap : snapshots) total += walk(snap, v, /*kill=*/true);
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
