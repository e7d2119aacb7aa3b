// On-disk immutable CSR container: the `.imgrf` format (IMGRF01).
//
// A graph file stores both adjacency directions with delta/varint-compressed
// neighbor blocks plus one uncompressed per-forward-edge weights lane, so a
// CompactGraph can mmap it and serve every Graph query without ever building
// the heap CSR. Layout (all sections 8-byte aligned, in file order):
//
//   header            imgrf::kFormat.HeaderBytes() = 184 bytes
//   out_edge_offsets  (n+1) x u64   forward edge-id prefix (degree + id base)
//   out_byte_offsets  (n+1) x u64   byte offset of each node's out blocks
//   out_blocks        varints       out-targets, 64-neighbor delta blocks
//   weights           m x f64       W(u,v) in forward edge-id order
//   in_edge_offsets   (n+1) x u64   in-position prefix per target
//   in_byte_offsets   (n+1) x u64   byte offset of each node's in blocks
//   in_blocks         varints       (source, rank) pairs, 64-pair blocks
//   multiplicities    m x u32       only when the graph has parallel arcs
//
// Compression scheme: a node's out-targets are strictly ascending, so each
// fixed 64-neighbor block stores the first target absolute and the rest as
// deltas (LEB128 varints). The reverse direction stores, per in-edge, the
// ascending source (same delta blocks) plus the *rank* of the target inside
// the source's out-list — a tiny varint (< out-degree) from which the
// forward edge id is recovered as out_edge_offsets[source] + rank, giving
// in-weights and InEdgeIds by one gather each instead of a mirrored 8-byte
// lane. Weights stay uncompressed: they are IEEE doubles with full-entropy
// mantissas (TV/LT-random draws), the samplers index them randomly via the
// gather, and an aligned mmap'd lane keeps that gather one load.
//
// Integrity: the file is a sealed file (framework/sealed_file.h) with the
// eight sections above, so CompactGraph::Open refuses a torn, truncated or
// foreign file with the same header and payload checksums as a corpus
// checkpoint. The header's format fields carry the weight model, node and
// edge counts, flags and the GraphFingerprint() of the full topology and
// weights, so a checkpointed RR corpus can be validated against a graph
// file without rebuilding the heap CSR.
#ifndef IMBENCH_GRAPH_GRAPH_FILE_H_
#define IMBENCH_GRAPH_GRAPH_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "framework/sealed_file.h"
#include "graph/graph.h"
#include "graph/weights.h"

namespace imbench {

// Order-sensitive FNV-1a digest of a graph's topology and weights: node
// and arc counts, then per node its out-degree, targets, weight bit
// patterns and arc multiplicities. Two graphs with equal fingerprints are
// the same sampling substrate: RR streams drawn on them are identical.
// The streaming form lets GraphFileStreamWriter digest a graph it never
// holds in memory; GraphFingerprint(graph) runs it over a heap Graph.
class GraphFingerprinter {
 public:
  GraphFingerprinter(NodeId num_nodes, uint64_t num_edges) {
    h_ = Fnv1a(&num_nodes, sizeof num_nodes, h_);
    h_ = Fnv1a(&num_edges, sizeof num_edges, h_);
  }
  // Once per node, ascending: the node's whole out-adjacency and its
  // per-arc multiplicities (all 1 when the graph has no parallel arcs).
  void Node(std::span<const NodeId> targets, std::span<const double> weights,
            std::span<const uint32_t> mults) {
    const uint32_t degree = static_cast<uint32_t>(targets.size());
    h_ = Fnv1a(&degree, sizeof degree, h_);
    h_ = Fnv1a(targets.data(), targets.size_bytes(), h_);
    h_ = Fnv1a(weights.data(), weights.size_bytes(), h_);
    h_ = Fnv1a(mults.data(), mults.size_bytes(), h_);
  }
  uint64_t Digest() const { return h_; }

 private:
  uint64_t h_ = kFnvBasis;
};

uint64_t GraphFingerprint(const Graph& graph);

// perfbench/perfbench.cc still spells the names the graph file had before
// the sealed-file container; they name its one status and one FNV-1a.
using GraphFileStatus = SealedStatus;
inline const char* GraphFileStatusName(SealedStatus status) {
  return SealedStatusName(status);
}

namespace imgrf {

using ::imbench::Fnv1a;
using ::imbench::kFnvBasis;

// Neighbors per decode block: the first value of every block is absolute,
// so a decoder can start at any block boundary and FusedCascadeContext's
// 64-lane kernels decode exactly one block per scan window.
inline constexpr uint32_t kBlockSize = 64;
inline constexpr uint32_t kFlagHasMultiplicities = 1u << 0;

enum Section : int {
  kOutEdgeOffsets = 0,
  kOutByteOffsets,
  kOutBlocks,
  kWeights,
  kInEdgeOffsets,
  kInByteOffsets,
  kInBlocks,
  kMultiplicities,
  kNumSections,
};

// IMGRF01: format fields model (u32), num_nodes (u32), flags (u32),
// num_edges (u64), fingerprint (u64); the sections above. Opening maps
// through the graph_file_map fault site.
extern const SealedFormat kFormat;

// LEB128 append/decode. Values are unsigned: adjacency deltas are >= 1 and
// ranks are >= 0, so no zigzag is needed.
inline void AppendVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

inline const uint8_t* DecodeVarint(const uint8_t* p, uint64_t* v) {
  uint64_t r = *p;
  if (r < 0x80) {
    *v = r;
    return p + 1;
  }
  r &= 0x7f;
  int shift = 7;
  do {
    r |= static_cast<uint64_t>(*++p & 0x7f) << shift;
    shift += 7;
  } while (*p >= 0x80);
  *v = r;
  return p + 1;
}

}  // namespace imgrf

// Writes `graph` (weights already assigned) to `path` as `.imgrf`, recording
// `model` as the file's weight-model tag. The embedded fingerprint equals
// GraphFingerprint(graph). Returns false with *error set on IO failure.
bool WriteGraphFile(const Graph& graph, WeightModel model,
                    const std::string& path, std::string* error);

// Streams an arc set into a `.imgrf` file without ever materializing the
// arcs (or the heap CSR) in memory: AddArc() appends to a spill file, and
// Finish() runs an external counting sort plus the same
// dedup/self-loop/weight-assignment pipeline as Graph::FromArcs +
// AssignWeights, needing O(num_nodes) RAM and O(num_arcs) temp disk.
//
// Weight models: IC/WC/TV/LT/LT-P are streamable (TV draws its levels in
// forward edge-id order from Options::weight_rng_seed, exactly like
// AssignTrivalency); LT-random needs a target-order RNG pass over the heap
// CSR and makes Finish() fail with an explanatory error.
class GraphFileStreamWriter {
 public:
  struct Options {
    WeightModel model = WeightModel::kWc;
    double ic_p = 0.1;            // IC constant probability
    uint64_t weight_rng_seed = 0;  // TV level draws (forward edge order)
    bool make_bidirectional = false;
    bool drop_self_loops = true;
  };

  GraphFileStreamWriter(std::string path, NodeId num_nodes,
                        const Options& options);
  ~GraphFileStreamWriter();
  GraphFileStreamWriter(const GraphFileStreamWriter&) = delete;
  GraphFileStreamWriter& operator=(const GraphFileStreamWriter&) = delete;

  // Appends one directed arc (u, v); u and v must be < num_nodes. With
  // make_bidirectional the reverse arc is added too. Returns false once the
  // writer has hit an IO error (Finish() reports the detail).
  bool AddArc(NodeId u, NodeId v);

  // Sorts, dedups, assigns weights, encodes and assembles the final file.
  // Removes all temp files. Returns false with *error on failure (the
  // destination is removed so no torn file survives).
  bool Finish(std::string* error);

  uint64_t arcs_added() const { return arcs_added_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint64_t arcs_added_ = 0;
};

}  // namespace imbench

#endif  // IMBENCH_GRAPH_GRAPH_FILE_H_
