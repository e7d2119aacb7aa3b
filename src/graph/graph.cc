#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace imbench {

Graph Graph::FromArcs(NodeId num_nodes, std::vector<Arc> arcs,
                      const GraphOptions& options) {
  for (const Arc& a : arcs) {
    IMBENCH_CHECK_MSG(a.source < num_nodes && a.target < num_nodes,
                      "arc (%u, %u) out of range for %u nodes", a.source,
                      a.target, num_nodes);
  }
  if (options.make_bidirectional) {
    const size_t original = arcs.size();
    arcs.reserve(original * 2);
    for (size_t i = 0; i < original; ++i) {
      arcs.push_back(Arc{arcs[i].target, arcs[i].source});
    }
  }
  std::erase_if(arcs, [](const Arc& a) { return a.source == a.target; });
  std::sort(arcs.begin(), arcs.end(), [](const Arc& x, const Arc& y) {
    return x.source != y.source ? x.source < y.source : x.target < y.target;
  });

  Graph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_.assign(num_nodes + 1, 0);

  std::vector<uint32_t> multiplicities;
  size_t write = 0;
  for (size_t read = 0; read < arcs.size();) {
    size_t run = read + 1;
    while (run < arcs.size() && arcs[run] == arcs[read]) ++run;
    arcs[write] = arcs[read];
    multiplicities.push_back(static_cast<uint32_t>(run - read));
    ++write;
    read = run;
  }
  arcs.resize(write);
  // Store multiplicities only if a parallel arc actually existed.
  const bool any_parallel =
      std::any_of(multiplicities.begin(), multiplicities.end(),
                  [](uint32_t c) { return c > 1; });
  if (!any_parallel) multiplicities.clear();
  g.multiplicities_ = std::move(multiplicities);

  const size_t m = arcs.size();
  g.out_targets_.resize(m);
  g.out_weights_.assign(m, 0.0);
  for (const Arc& a : arcs) ++g.out_offsets_[a.source + 1];
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
  }
  // Arcs are sorted by source, so CSR fill is a single pass.
  for (size_t i = 0; i < m; ++i) {
    g.out_targets_[i] = arcs[i].target;
  }

  // Reverse CSR.
  g.in_offsets_.assign(num_nodes + 1, 0);
  g.in_sources_.resize(m);
  g.in_weights_.assign(m, 0.0);
  g.in_edge_ids_.resize(m);
  for (size_t i = 0; i < m; ++i) ++g.in_offsets_[arcs[i].target + 1];
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (size_t i = 0; i < m; ++i) {
    const EdgeId pos = cursor[arcs[i].target]++;
    g.in_sources_[pos] = arcs[i].source;
    g.in_edge_ids_[pos] = static_cast<EdgeId>(i);
  }
  return g;
}

Graph Graph::Clone() const {
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.out_offsets_ = out_offsets_;
  g.out_targets_ = out_targets_;
  g.out_weights_ = out_weights_;
  g.in_offsets_ = in_offsets_;
  g.in_sources_ = in_sources_;
  g.in_weights_ = in_weights_;
  g.in_edge_ids_ = in_edge_ids_;
  g.multiplicities_ = multiplicities_;
  return g;
}

void Graph::SetWeights(std::span<const double> weights) {
  IMBENCH_CHECK(weights.size() == out_weights_.size());
  std::copy(weights.begin(), weights.end(), out_weights_.begin());
  for (size_t i = 0; i < in_edge_ids_.size(); ++i) {
    in_weights_[i] = out_weights_[in_edge_ids_[i]];
  }
}

EdgeId Graph::FindEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) return kInvalidEdge;
  const NodeId* begin = out_targets_.data() + out_offsets_[u];
  const NodeId* end = out_targets_.data() + out_offsets_[u + 1];
  const NodeId* it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) return kInvalidEdge;
  return out_offsets_[u] + static_cast<EdgeId>(it - begin);
}

double Graph::InWeightSum(NodeId v) const {
  double sum = 0;
  for (double w : InWeights(v)) sum += w;
  return sum;
}

uint64_t Graph::MemoryBytes() const {
  auto bytes = [](const auto& vec) {
    return static_cast<uint64_t>(vec.capacity() * sizeof(vec[0]));
  };
  return bytes(out_offsets_) + bytes(out_targets_) + bytes(out_weights_) +
         bytes(in_offsets_) + bytes(in_sources_) + bytes(in_weights_) +
         bytes(in_edge_ids_) + bytes(multiplicities_);
}

}  // namespace imbench
