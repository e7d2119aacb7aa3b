// The per-query view of the system that every seed-selection entry point
// runs against: the graph (heap CSR or mmap'd .imgrf), the diffusion model
// and the shared run controls. Callers that serve from an EpochGraphStore
// keep the snapshot alive themselves for the length of the query.
#ifndef IMBENCH_FRAMEWORK_QUERY_CONTEXT_H_
#define IMBENCH_FRAMEWORK_QUERY_CONTEXT_H_

#include "common/run_options.h"
#include "diffusion/cascade.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace imbench {

struct QueryContext : CommonRunOptions {
  const Graph* graph = nullptr;
  // Out-of-core backend (an opened .imgrf mapping): set instead of `graph`
  // by im_run --graph-file. Only algorithms whose AlgorithmSpec declares
  // supports_compact run against it; they traverse through View() and
  // never touch `graph` directly. Exactly one of graph/compact is set.
  const CompactGraph* compact = nullptr;
  DiffusionKind diffusion = DiffusionKind::kIndependentCascade;

  // The backend-neutral traversal handle (graph/graph_view.h).
  GraphView View() const {
    return graph != nullptr ? GraphView(*graph) : GraphView(*compact);
  }
  NodeId NumNodes() const {
    return graph != nullptr ? graph->num_nodes() : compact->num_nodes();
  }
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_QUERY_CONTEXT_H_
