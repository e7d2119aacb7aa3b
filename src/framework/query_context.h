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
  // The graph on exactly one backend: the heap CSR, or an opened .imgrf
  // mapping (im_run --graph-file). Every technique reads it only through
  // View(), so each runs on either backend and selects the same seeds.
  const Graph* graph = nullptr;
  const CompactGraph* compact = nullptr;
  DiffusionKind diffusion = DiffusionKind::kIndependentCascade;

  // The backend-neutral traversal handle (graph/graph_view.h).
  GraphView View() const {
    return graph != nullptr ? GraphView(*graph) : GraphView(*compact);
  }
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_QUERY_CONTEXT_H_
