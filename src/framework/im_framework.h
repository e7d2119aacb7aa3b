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

#include "diffusion/spread.h"
#include "framework/registry.h"
#include "graph/graph.h"

namespace imbench {

// Shared run controls (seed, threads, guard, trace, pool) come from
// CommonRunOptions and flow into both selection and evaluation. The trace
// sees one "trial" span per spectrum point containing the algorithm's own
// phase spans plus an "evaluate" span around the MC spread computation.
struct FrameworkOptions : CommonRunOptions {
  uint32_t k = 50;
  // r for the spread-computation phase (10K in the paper, Sec. 5.1).
  uint32_t evaluation_simulations = kReferenceSimulations;
  // Convergence slack in standard deviations (1.0 per Sec. 5.1.1).
  double tolerance_stddevs = 1.0;
};

// One (parameter, seeds, spread) evaluation along the spectrum.
struct ParameterTrial {
  double parameter = kDefaultParameter;
  std::vector<NodeId> seeds;
  SpreadEstimate spread;
  double select_seconds = 0;
};

struct FrameworkResult {
  // The converged choice: the cheapest parameter whose spread is within
  // tolerance of the most accurate setting.
  ParameterTrial chosen;
  // Every trial performed, in spectrum order (for Figs. 14-16).
  std::vector<ParameterTrial> trials;
};

// Runs Alg. 3 for `spec` on `graph` (weights must already be assigned and
// match `kind`). For techniques without an external parameter this is a
// single select + evaluate.
FrameworkResult RunImFramework(const Graph& graph, const AlgorithmSpec& spec,
                               DiffusionKind kind,
                               const FrameworkOptions& options);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_IM_FRAMEWORK_H_
