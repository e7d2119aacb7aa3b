#include "algorithms/snapshots.h"

namespace imbench {

Snapshot SampleSnapshot(const GraphView& graph, Rng& rng,
                        AdjScratch& scratch) {
  Snapshot snap;
  const NodeId n = graph.num_nodes();
  snap.offsets.reserve(n + 1);
  snap.offsets.push_back(0);
  for (NodeId u = 0; u < n; ++u) {
    const AdjView out = graph.Out(u, scratch);
    for (size_t i = 0; i < out.nodes.size(); ++i) {
      if (rng.NextDouble() < out.weights[i]) {
        snap.targets.push_back(out.nodes[i]);
      }
    }
    snap.offsets.push_back(static_cast<uint32_t>(snap.targets.size()));
  }
  return snap;
}

}  // namespace imbench
