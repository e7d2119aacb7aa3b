// Live-edge snapshot sampling shared by StaticGreedy and PMC (Sec. 4.3).
#ifndef IMBENCH_ALGORITHMS_SNAPSHOTS_H_
#define IMBENCH_ALGORITHMS_SNAPSHOTS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph_view.h"

namespace imbench {

// One sampled instantiation G_i of the graph: each edge retained
// independently with probability W(u, v). CSR over the retained arcs.
struct Snapshot {
  std::vector<uint32_t> offsets;  // size n + 1
  std::vector<NodeId> targets;

  uint64_t MemoryBytes() const {
    return offsets.capacity() * sizeof(uint32_t) +
           targets.capacity() * sizeof(NodeId);
  }
};

// Coin-flips every edge of `graph` once, in forward edge order, decoding
// each out-list into `scratch` on the compact backend.
Snapshot SampleSnapshot(const GraphView& graph, Rng& rng, AdjScratch& scratch);

}  // namespace imbench

#endif  // IMBENCH_ALGORITHMS_SNAPSHOTS_H_
