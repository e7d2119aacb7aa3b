// Out-of-core graph backend: an `.imgrf` file mapped read-only.
//
// A CompactGraph serves the full Graph query surface from the mmap'd file —
// no heap CSR is ever built, so a 100M-edge graph costs a few hundred MB of
// *page cache* (reclaimable, invisible to the heap budget in RunBudget)
// instead of gigabytes of anonymous heap. Adjacency is decoded per node
// visit into a caller-owned AdjScratch: the decoder walks the node's
// fixed-64-neighbor delta blocks once, gathers the weights lane, and the
// caller scans the scratch hot. Everything is immutable and the decode is
// pure, so concurrent readers with private scratches need no locking and
// the PR 3 determinism contract is untouched.
//
// Integrity: Open() reads the file through the sealed-file reader
// (framework/sealed_file.h), which refuses torn, truncated or foreign bytes
// by the header and payload checksums, then checks the IMGRF01 fields, the
// offset sections and (optionally) an expected GraphFingerprint. The open
// path is a fault site (graph_file_read / graph_file_map) so chaos plans
// can drive the im_run --keep-going degradation to edge-list loading.
#ifndef IMBENCH_GRAPH_COMPACT_GRAPH_H_
#define IMBENCH_GRAPH_COMPACT_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_file.h"

namespace imbench {

class Trace;

// Reusable per-thread decode scratch. One per traversal context; the decode
// resizes the vectors to the node's degree and returns spans over them.
struct AdjScratch {
  std::vector<NodeId> nodes;
  std::vector<double> weights;
  std::vector<EdgeId> edge_ids;
  // Blocks decoded through this scratch since the last flush. Flushed to
  // TraceCounter::kNeighborBlocksDecoded only at sequential/coordinating
  // sites (see graph_view.h) to keep traces thread-count invariant.
  uint64_t blocks_decoded = 0;
};

class CompactGraph {
 public:
  struct OpenOptions {
    // When set, refuse (kMismatch) a file whose fingerprint differs —
    // the "foreign file" guard for callers that know the expected graph.
    bool has_expected_fingerprint = false;
    uint64_t expected_fingerprint = 0;
    // When non-null, kGraphBytesMapped is bumped once with the mapped size.
    Trace* trace = nullptr;
  };

  CompactGraph() = default;
  ~CompactGraph();
  CompactGraph(CompactGraph&& other) noexcept;
  CompactGraph& operator=(CompactGraph&& other) noexcept;
  CompactGraph(const CompactGraph&) = delete;
  CompactGraph& operator=(const CompactGraph&) = delete;

  // Opens and validates `path`. On any status but kOk, *out is left empty
  // and *error (when non-null) describes the refusal.
  static SealedStatus Open(const std::string& path, CompactGraph* out,
                           std::string* error, const OpenOptions& options);
  static SealedStatus Open(const std::string& path, CompactGraph* out,
                           std::string* error) {
    return Open(path, out, error, OpenOptions());
  }

  bool mapped() const { return file_.mapped(); }
  const std::string& path() const { return path_; }
  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_edges() const { return num_edges_; }
  WeightModel weight_model() const { return model_; }
  uint64_t fingerprint() const { return fingerprint_; }

  uint32_t OutDegree(NodeId u) const {
    return static_cast<uint32_t>(out_edge_offsets_[u + 1] -
                                 out_edge_offsets_[u]);
  }
  uint32_t InDegree(NodeId v) const {
    return static_cast<uint32_t>(in_edge_offsets_[v + 1] -
                                 in_edge_offsets_[v]);
  }

  // Forward edge-id of u's first out-edge: the base that indexes per-edge
  // arrays (weights, fused masks).
  EdgeId OutEdgeBase(NodeId u) const { return out_edge_offsets_[u]; }

  // Two-stage prefetch of v's in-adjacency (Graph has the same pair):
  // stage 1 touches the edge and byte offset entries, stage 2 the varint
  // block bytes the byte offset points to. Hints only.
  void PrefetchInOffsets(NodeId v) const {
    __builtin_prefetch(in_edge_offsets_ + v);
    __builtin_prefetch(in_byte_offsets_ + v);
  }
  void PrefetchInAdjacency(NodeId v) const {
    __builtin_prefetch(in_blocks_ + in_byte_offsets_[v]);
  }

  // Decodes u's out-targets into scratch.nodes (like Graph::OutTargets).
  // Their weights need no decode: they lie contiguous in weights() from
  // OutEdgeBase(u).
  void DecodeOut(NodeId u, AdjScratch& scratch) const;

  // Decodes v's in-edges: sources into scratch.nodes and weights into
  // scratch.weights, index-aligned like Graph::InSources / InWeights. For
  // the degree-derived models (WC, LT-uniform: 1/indeg; IC-constant: the
  // file's constant) the weights are synthesized from the in-degree with
  // the exact expression the assigners use — bit-identical to the stored
  // lane, no per-edge random gather. `decode_edge_ids` additionally fills
  // scratch.edge_ids (forward edge ids, like Graph::InEdgeIds); only then
  // does the decoder pay the per-edge rank->edge-id resolution.
  void DecodeIn(NodeId v, AdjScratch& scratch, bool decode_weights = true,
                bool decode_edge_ids = false) const;

  // The uncompressed weights lane, indexed by forward edge id (identical
  // layout to Graph::weights()).
  std::span<const double> weights() const { return {weights_, num_edges_}; }

  uint32_t EdgeMultiplicity(EdgeId e) const {
    return multiplicities_ == nullptr ? 1 : multiplicities_[e];
  }
  bool has_parallel_arcs() const { return multiplicities_ != nullptr; }

  double InWeightSum(NodeId v, AdjScratch& scratch) const;

  // Memory accounting (see EXPERIMENTS.md): the mapping is file-backed and
  // reclaimable, so "mapped" is the address-space reservation while
  // "resident" (via mincore) is what currently occupies RAM.
  uint64_t MappedBytes() const { return file_.size(); }
  uint64_t ResidentBytes() const;

  // Drops the mapping's resident pages (madvise MADV_DONTNEED) so benches
  // can measure cold page-in cost. Best-effort; a no-op on failure.
  void DropPages() const;

 private:
  void Reset();

  std::string path_;
  SealedFile file_;

  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  WeightModel model_ = WeightModel::kIcConstant;
  uint64_t fingerprint_ = 0;
  // True when in-weights depend only on the target's in-degree (WC,
  // LT-uniform) or are one global constant (IC-constant, cached below):
  // DecodeIn then skips the weights-lane gather entirely.
  bool synthesize_in_weights_ = false;
  double constant_weight_ = 0.0;

  const uint64_t* out_edge_offsets_ = nullptr;  // n + 1
  const uint64_t* out_byte_offsets_ = nullptr;  // n + 1
  const uint8_t* out_blocks_ = nullptr;
  const double* weights_ = nullptr;             // m
  const uint64_t* in_edge_offsets_ = nullptr;   // n + 1
  const uint64_t* in_byte_offsets_ = nullptr;   // n + 1
  const uint8_t* in_blocks_ = nullptr;
  const uint32_t* multiplicities_ = nullptr;    // m or null
};

}  // namespace imbench

#endif  // IMBENCH_GRAPH_COMPACT_GRAPH_H_
