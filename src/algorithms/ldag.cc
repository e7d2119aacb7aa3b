#include "algorithms/ldag.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "common/check.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// One local DAG D_v. Nodes are stored in topological order (sources first,
// the sink v last); edges are kept as both in- and out-CSRs over local
// indices so the forward ap pass and backward α pass are linear scans.
struct LocalDag {
  NodeId sink = 0;
  std::vector<NodeId> nodes;  // topo order, global ids; nodes.back() == sink

  std::vector<uint32_t> in_offsets;
  std::vector<uint32_t> in_src;  // local index of edge source
  std::vector<double> in_weight;

  std::vector<uint32_t> out_offsets;
  std::vector<uint32_t> out_dst;  // local index of edge target
  std::vector<double> out_weight;

  // Per-node state for the current seed set.
  std::vector<double> ap;     // activation probability
  std::vector<double> alpha;  // ∂ap(sink)/∂ap(u)
};

// Epoch-stamped whole-graph scratch shared across all BuildLocalDag calls,
// so each construction costs O(|D| log |D| + touched edges), not O(n).
// The compact backend decodes an admitted node's out-list and in-list into
// one scratch each.
struct DagScratch {
  explicit DagScratch(NodeId n)
      : best(n, 0.0), best_stamp(n, 0), admitted_stamp(n, 0), local(n, 0) {}

  std::vector<double> best;          // best path probability so far
  std::vector<uint32_t> best_stamp;
  std::vector<uint32_t> admitted_stamp;
  std::vector<uint32_t> local;       // local index once admitted
  uint32_t epoch = 0;
  AdjScratch out;
  AdjScratch in;
};

// Find-LDAG: max-probability Dijkstra from `sink` over in-edges. A node
// enters the DAG when its best path probability is >= theta; edges are
// added from each newly admitted node to already-admitted targets, which
// guarantees acyclicity (edges always point toward earlier-admitted,
// higher-probability nodes).
LocalDag BuildLocalDag(const GraphView& graph, NodeId sink, double theta,
                       DagScratch& scratch) {
  LocalDag dag;
  dag.sink = sink;
  const uint32_t epoch = ++scratch.epoch;

  struct QueueEntry {
    double prob;
    NodeId node;
    bool operator<(const QueueEntry& o) const { return prob < o.prob; }
  };
  std::priority_queue<QueueEntry> queue;
  auto admitted = [&](NodeId u) { return scratch.admitted_stamp[u] == epoch; };

  std::vector<NodeId> admission_order;
  std::vector<std::pair<NodeId, NodeId>> edges;  // (src, dst) global ids
  std::vector<double> edge_weights;

  queue.push(QueueEntry{1.0, sink});
  scratch.best[sink] = 1.0;
  scratch.best_stamp[sink] = epoch;
  while (!queue.empty()) {
    const auto [prob, u] = queue.top();
    queue.pop();
    if (prob < theta) break;
    if (admitted(u)) continue;
    scratch.admitted_stamp[u] = epoch;
    admission_order.push_back(u);
    // Edges from u to already-admitted out-neighbors.
    const AdjView out = graph.Out(u, scratch.out);
    for (size_t i = 0; i < out.nodes.size(); ++i) {
      if (out.nodes[i] != u && admitted(out.nodes[i])) {
        edges.emplace_back(u, out.nodes[i]);
        edge_weights.push_back(out.weights[i]);
      }
    }
    // Relax in-neighbors.
    const AdjView in = graph.In(u, scratch.in);
    for (size_t i = 0; i < in.nodes.size(); ++i) {
      const NodeId x = in.nodes[i];
      if (admitted(x)) continue;
      const double candidate = prob * in.weights[i];
      const double current =
          scratch.best_stamp[x] == epoch ? scratch.best[x] : 0.0;
      if (candidate >= theta && candidate > current) {
        scratch.best[x] = candidate;
        scratch.best_stamp[x] = epoch;
        queue.push(QueueEntry{candidate, x});
      }
    }
  }

  // Topological order: reverse admission order (sources first, sink last).
  dag.nodes.assign(admission_order.rbegin(), admission_order.rend());
  const uint32_t size = static_cast<uint32_t>(dag.nodes.size());
  for (uint32_t i = 0; i < size; ++i) scratch.local[dag.nodes[i]] = i;

  // Build local CSRs.
  std::vector<uint32_t> in_degree(size, 0), out_degree(size, 0);
  for (const auto& [src, dst] : edges) {
    ++in_degree[scratch.local[dst]];
    ++out_degree[scratch.local[src]];
  }
  dag.in_offsets.assign(size + 1, 0);
  dag.out_offsets.assign(size + 1, 0);
  for (uint32_t i = 0; i < size; ++i) {
    dag.in_offsets[i + 1] = dag.in_offsets[i] + in_degree[i];
    dag.out_offsets[i + 1] = dag.out_offsets[i] + out_degree[i];
  }
  dag.in_src.resize(edges.size());
  dag.in_weight.resize(edges.size());
  dag.out_dst.resize(edges.size());
  dag.out_weight.resize(edges.size());
  std::vector<uint32_t> in_cursor(dag.in_offsets.begin(),
                                  dag.in_offsets.end() - 1);
  std::vector<uint32_t> out_cursor(dag.out_offsets.begin(),
                                   dag.out_offsets.end() - 1);
  for (size_t e = 0; e < edges.size(); ++e) {
    const uint32_t s = scratch.local[edges[e].first];
    const uint32_t d = scratch.local[edges[e].second];
    dag.in_src[in_cursor[d]] = s;
    dag.in_weight[in_cursor[d]] = edge_weights[e];
    ++in_cursor[d];
    dag.out_dst[out_cursor[s]] = d;
    dag.out_weight[out_cursor[s]] = edge_weights[e];
    ++out_cursor[s];
  }
  dag.ap.assign(size, 0.0);
  dag.alpha.assign(size, 0.0);
  return dag;
}

// Recomputes ap (forward) and α (backward) for the current seed set.
void Solve(LocalDag& dag, const std::vector<uint8_t>& is_seed) {
  const uint32_t size = static_cast<uint32_t>(dag.nodes.size());
  if (size == 0) return;
  // Forward: ap(u) = 1 for seeds, else Σ_in w·ap (Equation 1 linearized).
  for (uint32_t i = 0; i < size; ++i) {
    if (is_seed[dag.nodes[i]]) {
      dag.ap[i] = 1.0;
      continue;
    }
    double sum = 0;
    for (uint32_t e = dag.in_offsets[i]; e < dag.in_offsets[i + 1]; ++e) {
      sum += dag.in_weight[e] * dag.ap[dag.in_src[e]];
    }
    dag.ap[i] = std::min(1.0, sum);
  }
  // Backward: α(sink) = 1; α(x) = Σ_out α(dst)·w unless dst is a seed
  // (a seed's ap is pinned, so no derivative flows through it).
  const uint32_t sink_local = size - 1;
  for (uint32_t i = 0; i < size; ++i) dag.alpha[i] = 0.0;
  dag.alpha[sink_local] = 1.0;
  for (uint32_t i = size; i-- > 0;) {
    if (i != sink_local) {
      double sum = 0;
      for (uint32_t e = dag.out_offsets[i]; e < dag.out_offsets[i + 1]; ++e) {
        const uint32_t d = dag.out_dst[e];
        if (is_seed[dag.nodes[d]]) continue;
        sum += dag.out_weight[e] * dag.alpha[d];
      }
      dag.alpha[i] = sum;
    }
  }
}

}  // namespace

SelectionResult Ldag::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();
  // θ > 1 would exclude even the sink itself; path probabilities never
  // exceed 1, so clamping preserves the intended "sink only" degeneration.
  const double theta = std::min(options_.theta, 1.0);

  // Build all local DAGs and the node -> DAGs inverted index.
  std::vector<LocalDag> dags;
  dags.reserve(n);
  DagScratch scratch(n);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> member_of(n);
  {
    Span build_span(input.trace, "build");
    for (NodeId v = 0; v < n; ++v) {
      // A tripped budget leaves some nodes without a DAG: they simply score
      // 0 below, so selection still ranks whatever influence was computed.
      TraceAdd(input.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(input.guard)) break;
      LocalDag dag = BuildLocalDag(graph, v, theta, scratch);
      const uint32_t dag_id = static_cast<uint32_t>(dags.size());
      for (uint32_t i = 0; i < dag.nodes.size(); ++i) {
        member_of[dag.nodes[i]].emplace_back(dag_id, i);
      }
      dags.push_back(std::move(dag));
    }
    TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
             scratch.out.blocks_decoded + scratch.in.blocks_decoded);
  }

  std::vector<uint8_t> is_seed(n, 0);
  std::vector<double> inc_inf(n, 0.0);
  {
    Span score_span(input.trace, "score");
    for (auto& dag : dags) {
      TraceAdd(input.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(input.guard)) break;
      Solve(dag, is_seed);
      for (uint32_t i = 0; i < dag.nodes.size(); ++i) {
        inc_inf[dag.nodes[i]] += dag.alpha[i] * (1.0 - dag.ap[i]);
      }
    }
  }

  SelectionResult result;
  double total_influence = 0;
  Span select_span(input.trace, "select");
  while (result.seeds.size() < input.k) {
    NodeId best = kInvalidNode;
    double best_inf = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (!is_seed[u] && inc_inf[u] > best_inf) {
        best_inf = inc_inf[u];
        best = u;
      }
    }
    if (best == kInvalidNode) break;
    TraceAdd(input.trace, TraceCounter::kNodeLookups);
    total_influence += best_inf;
    is_seed[best] = 1;
    result.seeds.push_back(best);

    // When draining, keep picking by the (now stale) scores — the scan above
    // is cheap — but skip the expensive incremental re-solves.
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(input.guard)) continue;

    // Incremental update: only the DAGs containing the new seed change.
    for (const auto& [dag_id, unused_local] : member_of[best]) {
      (void)unused_local;
      LocalDag& dag = dags[dag_id];
      for (uint32_t i = 0; i < dag.nodes.size(); ++i) {
        inc_inf[dag.nodes[i]] -= dag.alpha[i] * (1.0 - dag.ap[i]);
      }
      Solve(dag, is_seed);
      for (uint32_t i = 0; i < dag.nodes.size(); ++i) {
        inc_inf[dag.nodes[i]] += dag.alpha[i] * (1.0 - dag.ap[i]);
      }
    }
  }
  result.internal_spread_estimate = total_influence;
  result.stop_reason = GuardReason(input.guard);
  return result;
}

}  // namespace imbench
