// Immutable edge-weighted directed graph in CSR form (Definition 1).
//
// The graph stores both forward (out-neighbor) and reverse (in-neighbor)
// adjacency so that cascade simulation (forward traversal) and
// reverse-reachable-set sampling (backward traversal) are both contiguous
// scans. Edge weights W(u,v) live in a single per-forward-edge array; the
// reverse CSR carries a mirrored copy that is kept in sync by SetWeights(),
// so the two views can never disagree.
#ifndef IMBENCH_GRAPH_GRAPH_H_
#define IMBENCH_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

namespace imbench {

using NodeId = uint32_t;
using EdgeId = uint64_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

// A directed arc used while building a graph.
struct Arc {
  NodeId source = 0;
  NodeId target = 0;

  friend bool operator==(const Arc&, const Arc&) = default;
};

// One weighted directed arc: an edit of Graph::WithArcs, and a mutation
// request of the epoch store (service/epoch_graph_store.h).
struct WeightedArc {
  NodeId source = 0;
  NodeId target = 0;
  double weight = 0;
};

// Options controlling graph construction.
struct GraphOptions {
  // Add the reverse arc for every input arc (the paper makes undirected
  // graphs directed by keeping both directions, Sec. 5).
  bool make_bidirectional = false;
};

class Graph {
 public:
  // Builds a graph over nodes [0, num_nodes) from `arcs`. Arcs referring to
  // nodes >= num_nodes are rejected (IMBENCH_CHECK). Self loops (u, u) are
  // dropped, since they never affect influence spread; parallel arcs are
  // collapsed into one edge that records its multiplicity. All edge
  // weights start at 0; assign them with the models in graph/weights.h.
  static Graph FromArcs(NodeId num_nodes, std::vector<Arc> arcs,
                        const GraphOptions& options = GraphOptions{});

  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  // Graphs can be large; copies must be explicit.
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  Graph Clone() const;

  // The successor graph with W(source, target) = weight for every edit: an
  // existing edge keeps its id order and multiplicity and takes the new
  // weight, an absent arc is inserted with multiplicity 1 at its sorted
  // out- and in-positions. The result equals FromArcs + SetWeights over
  // this graph's arcs plus the inserted ones, array for array, but is
  // built by one linear splice of the CSR: runs between insertion points
  // are copied, and forward edge ids behind an insert shift by the number
  // of inserts at or before them. `edits` must be sorted by (source,
  // target) with no duplicates, in range and free of self loops
  // (IMBENCH_CHECK).
  Graph WithArcs(std::span<const WeightedArc> edits) const;

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(out_targets_.size()); }

  uint32_t OutDegree(NodeId u) const {
    return static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  // Out-neighbors of u and the matching weights W(u, ·), index-aligned.
  std::span<const NodeId> OutTargets(NodeId u) const {
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }
  std::span<const double> OutWeights(NodeId u) const {
    return {out_weights_.data() + out_offsets_[u],
            out_weights_.data() + out_offsets_[u + 1]};
  }

  // In-neighbors of v and the matching weights W(·, v), index-aligned.
  std::span<const NodeId> InSources(NodeId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }
  std::span<const double> InWeights(NodeId v) const {
    return {in_weights_.data() + in_offsets_[v],
            in_weights_.data() + in_offsets_[v + 1]};
  }

  // Two-stage prefetch of v's in-adjacency, for samplers that know their
  // next roots ahead of time: stage 1 touches the offset entry, stage 2
  // (issued once stage 1 has landed) the sources and weights it points to.
  // Hints only; neither changes any observable state.
  void PrefetchInOffsets(NodeId v) const {
    __builtin_prefetch(in_offsets_.data() + v);
  }
  void PrefetchInAdjacency(NodeId v) const {
    const EdgeId base = in_offsets_[v];
    __builtin_prefetch(in_sources_.data() + base);
    __builtin_prefetch(in_weights_.data() + base);
  }

  // Forward edge ids of v's in-edges, aligned with InSources(v). The id of
  // an edge indexes weights()/multiplicities().
  std::span<const EdgeId> InEdgeIds(NodeId v) const {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_edge_ids_.data() + in_offsets_[v + 1]};
  }

  // All edge weights, indexed by forward edge id (edges of node 0 first).
  std::span<const double> weights() const { return out_weights_; }

  // Forward edge id of u's first out-edge: the base that indexes per-edge
  // side arrays (weights, fused coin masks). Mirrored by CompactGraph so
  // GraphView exposes both backends.
  EdgeId OutEdgeBase(NodeId u) const { return out_offsets_[u]; }

  // Replaces every edge weight; `weights` is indexed by forward edge id.
  // Also refreshes the reverse-CSR weight mirror.
  void SetWeights(std::span<const double> weights);

  // Forward edge id of (u, v), or kInvalidEdge if absent. O(log outdeg(u)):
  // FromArcs sorts arcs by (source, target), so OutTargets(u) is ascending.
  EdgeId FindEdge(NodeId u, NodeId v) const;

  // Number of parallel arcs that were collapsed into each edge (>= 1).
  // Used by the LT-parallel-edges weight model (Sec. 2.1.2).
  uint32_t EdgeMultiplicity(EdgeId e) const {
    return multiplicities_.empty() ? 1 : multiplicities_[e];
  }
  bool has_parallel_arcs() const { return !multiplicities_.empty(); }

  // Sum of in-edge weights of v (the LT model requires this to be <= 1).
  double InWeightSum(NodeId v) const;

  // Approximate heap footprint of the CSR arrays, in bytes.
  uint64_t MemoryBytes() const;

 private:
  NodeId num_nodes_ = 0;

  std::vector<EdgeId> out_offsets_ = {0};
  std::vector<NodeId> out_targets_;
  std::vector<double> out_weights_;

  std::vector<EdgeId> in_offsets_ = {0};
  std::vector<NodeId> in_sources_;
  std::vector<double> in_weights_;
  std::vector<EdgeId> in_edge_ids_;

  std::vector<uint32_t> multiplicities_;  // empty when all are 1
};

}  // namespace imbench

#endif  // IMBENCH_GRAPH_GRAPH_H_
