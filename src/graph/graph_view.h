// GraphView: one traversal surface over both graph backends.
//
// A GraphView is a two-pointer value handle over either the in-memory
// `Graph` (the fast path: accessors return spans straight into the heap
// CSR, one branch per node visit) or the mmap-backed `CompactGraph` (the
// out-of-core path: accessors decode the node's compressed blocks into a
// caller-owned AdjScratch and return spans over it). It is implicitly
// constructible from `const Graph&`, so the diffusion engines' signature
// change from `const Graph&` to `const GraphView&` leaves every existing
// call site compiling unchanged.
//
// Scratch discipline: spans returned by the scratch-taking accessors are
// valid until the *same scratch* is used for another node. Engines that
// hold an out-adjacency while decoding an in-adjacency keep two scratches.
#ifndef IMBENCH_GRAPH_GRAPH_VIEW_H_
#define IMBENCH_GRAPH_GRAPH_VIEW_H_

#include <span>

#include "graph/compact_graph.h"
#include "graph/graph.h"

namespace imbench {

// An index-aligned (neighbors, weights) pair returned by Out()/In().
struct AdjView {
  std::span<const NodeId> nodes;
  std::span<const double> weights;
};

// v's in-adjacency on one concrete backend: spans into the heap CSR, or a
// decode into `scratch` on the compact backend. GraphView::In dispatches
// to these; hot loops that hoisted the backend branch (Visit) call them
// directly.
inline AdjView InAdjacency(const Graph& graph, NodeId v, AdjScratch&) {
  return {graph.InSources(v), graph.InWeights(v)};
}
inline AdjView InAdjacency(const CompactGraph& graph, NodeId v,
                           AdjScratch& scratch) {
  graph.DecodeIn(v, scratch);
  return {scratch.nodes, scratch.weights};
}

class GraphView {
 public:
  GraphView() = default;
  // Implicit by design: see the header comment.
  GraphView(const Graph& graph) : mem_(&graph) {}  // NOLINT
  GraphView(const CompactGraph& graph) : compact_(&graph) {}  // NOLINT

  bool valid() const { return mem_ != nullptr || compact_ != nullptr; }
  bool is_compact() const { return compact_ != nullptr; }
  const Graph* memory_graph() const { return mem_; }
  const CompactGraph* compact_graph() const { return compact_; }

  NodeId num_nodes() const {
    return mem_ != nullptr ? mem_->num_nodes() : compact_->num_nodes();
  }
  EdgeId num_edges() const {
    return mem_ != nullptr ? mem_->num_edges() : compact_->num_edges();
  }
  uint32_t OutDegree(NodeId u) const {
    return mem_ != nullptr ? mem_->OutDegree(u) : compact_->OutDegree(u);
  }
  uint32_t InDegree(NodeId v) const {
    return mem_ != nullptr ? mem_->InDegree(v) : compact_->InDegree(v);
  }

  // Out-neighbors of u with the matching weights W(u, ·), index-aligned.
  AdjView Out(NodeId u, AdjScratch& scratch) const {
    if (mem_ != nullptr) return {mem_->OutTargets(u), mem_->OutWeights(u)};
    compact_->DecodeOut(u, scratch);
    return {scratch.nodes, scratch.weights};
  }

  // In-neighbors of v with the matching weights W(·, v), index-aligned.
  AdjView In(NodeId v, AdjScratch& scratch) const {
    return mem_ != nullptr ? InAdjacency(*mem_, v, scratch)
                           : InAdjacency(*compact_, v, scratch);
  }

  // Calls fn(backend) with the concrete `const Graph&` or `const
  // CompactGraph&`, so a hot loop pays the backend branch once per call
  // instead of once per node visit. Both backends offer InAdjacency() and
  // the two-stage PrefetchInOffsets()/PrefetchInAdjacency() pair, which is
  // how the RR sampler hides the latency of its next roots' adjacency.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return mem_ != nullptr ? fn(*mem_) : fn(*compact_);
  }

  // Neighbor-only variants that skip the weight copy/gather.
  std::span<const NodeId> OutTargets(NodeId u, AdjScratch& scratch) const {
    if (mem_ != nullptr) return mem_->OutTargets(u);
    compact_->DecodeOut(u, scratch, /*decode_weights=*/false);
    return scratch.nodes;
  }
  std::span<const NodeId> InSources(NodeId v, AdjScratch& scratch) const {
    if (mem_ != nullptr) return mem_->InSources(v);
    compact_->DecodeIn(v, scratch, /*decode_weights=*/false);
    return scratch.nodes;
  }

  // Forward edge ids of v's in-edges, aligned with In(v)/InSources(v).
  // Decodes into the scratch itself (edge ids are not materialized by a
  // plain In(), which synthesizes weights where the model allows).
  std::span<const EdgeId> InEdgeIds(NodeId v, AdjScratch& scratch) const {
    if (mem_ != nullptr) return mem_->InEdgeIds(v);
    compact_->DecodeIn(v, scratch, /*decode_weights=*/true,
                       /*decode_edge_ids=*/true);
    return scratch.edge_ids;
  }

  // Positional bases for per-edge-indexed side arrays (fused coin masks,
  // fixed-point probability lanes): the forward edge id of u's first
  // out-edge / the in-position of v's first in-edge.
  EdgeId OutEdgeBase(NodeId u) const {
    return mem_ != nullptr ? mem_->OutEdgeBase(u) : compact_->OutEdgeBase(u);
  }
  EdgeId InEdgeBase(NodeId v) const {
    return mem_ != nullptr ? mem_->InEdgeBase(v) : compact_->InEdgeBase(v);
  }

  // All edge weights by forward edge id — a flat contiguous lane on both
  // backends (heap vector / mmap'd section).
  std::span<const double> weights() const {
    return mem_ != nullptr ? mem_->weights() : compact_->weights();
  }

  uint32_t EdgeMultiplicity(EdgeId e) const {
    return mem_ != nullptr ? mem_->EdgeMultiplicity(e)
                           : compact_->EdgeMultiplicity(e);
  }
  bool has_parallel_arcs() const {
    return mem_ != nullptr ? mem_->has_parallel_arcs()
                           : compact_->has_parallel_arcs();
  }

  double InWeightSum(NodeId v, AdjScratch& scratch) const {
    return mem_ != nullptr ? mem_->InWeightSum(v)
                           : compact_->InWeightSum(v, scratch);
  }

  // Resident vs mapped accounting (EXPERIMENTS.md): the heap CSR is fully
  // resident and maps nothing; the compact backend reserves the file size
  // and is resident only for the pages currently paged in.
  struct MemoryFootprint {
    uint64_t resident_bytes = 0;
    uint64_t mapped_bytes = 0;
  };
  MemoryFootprint Memory() const {
    if (mem_ != nullptr) return {mem_->MemoryBytes(), 0};
    return {compact_->ResidentBytes(), compact_->MappedBytes()};
  }

 private:
  const Graph* mem_ = nullptr;
  const CompactGraph* compact_ = nullptr;
};

}  // namespace imbench

#endif  // IMBENCH_GRAPH_GRAPH_VIEW_H_
