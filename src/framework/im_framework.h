// The generalized IM module (Alg. 3 of the paper).
//
// Runs a technique across its external-parameter spectrum P (most accurate
// value first), decoupling the three phases:
//   1. Seed selection   — the technique's own InfluenceEstimate /
//                         UpdateDataStructures loop (ImAlgorithm::Select);
//   2. Spread computation — r Monte-Carlo simulations of the returned
//                         seeds, identical for every technique;
//   3. Convergence      — keep relaxing the parameter while the spread
//                         stays within one standard deviation of the most
//                         accurate setting's spread (Sec. 5.1.1); return
//                         the last setting that still converged, i.e. the
//                         cheapest parameter with near-best quality.
#ifndef IMBENCH_FRAMEWORK_IM_FRAMEWORK_H_
#define IMBENCH_FRAMEWORK_IM_FRAMEWORK_H_

#include <vector>

#include "framework/experiment.h"
#include "framework/registry.h"
#include "graph/graph_view.h"

namespace imbench {

// One point of the spectrum: the parameter and its measured cell.
struct ParameterTrial {
  double parameter = kDefaultParameter;
  CellResult cell;
};

struct FrameworkResult {
  // The converged choice: the cheapest parameter whose spread is within
  // one standard deviation of the most accurate setting.
  ParameterTrial chosen;
  // Every trial performed, in spectrum order (for Figs. 14-16).
  std::vector<ParameterTrial> trials;
};

// Runs Alg. 3 for `spec` on `graph` (weights must already be assigned and
// match `kind`), measuring each trial with MeasureCell under `options`.
// The trace sees one "trial" span per spectrum point holding the
// technique's phase spans and the "evaluate" span. A trial that does not
// finish (DNF, Crashed, Cancelled) ends the walk as a quality drop does;
// the anchor trial is returned whatever its status. For techniques without
// an external parameter this is a single trial.
FrameworkResult RunImFramework(const AlgorithmSpec& spec,
                               const GraphView& graph, DiffusionKind kind,
                               uint32_t k, const CellOptions& options);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_IM_FRAMEWORK_H_
