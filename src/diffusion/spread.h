// Monte-Carlo estimation of the expected spread σ(S) = E[Γ(S)] (Sec. 2).
//
// One entry point: EstimateSpread(graph, kind, seeds, SpreadOptions), run
// on the fused kernel (diffusion/fused_cascade.h): 64 simulations per block
// with block-keyed streams, a partial block for a count that is not a
// multiple of 64. Deterministic in (seed, simulations): blocks are
// aggregated in index order, so the estimate is bit-identical for every
// thread count. The CELF family's marginal-gain loops draw one live stream
// through the scalar cascade instead (diffusion/streaming.h).
#ifndef IMBENCH_DIFFUSION_SPREAD_H_
#define IMBENCH_DIFFUSION_SPREAD_H_

#include <cstdint>
#include <span>

#include "common/run_options.h"
#include "diffusion/cascade.h"
#include "graph/graph_view.h"

namespace imbench {

// Number of MC simulations Kempe et al. recommend and the study adopts for
// final spread evaluation (Sec. 5.1 "Computing expected spread").
inline constexpr uint32_t kReferenceSimulations = 10000;

struct SpreadEstimate {
  double mean = 0;     // σ(S) estimate
  double stddev = 0;   // sample standard deviation of Γ(S)
  uint32_t simulations = 0;

  // Standard error of the mean; 0 when fewer than two samples were
  // aggregated (a guard-tripped run can finish with a single sample).
  double StdError() const;

  // Aggregates Γ samples in index order: the fixed summation order keeps
  // the result bit-identical whichever lanes produced the samples.
  static SpreadEstimate FromSamples(std::span<const NodeId> samples);
};

// How to run one spread estimation. The shared run controls (seed, threads,
// guard, trace, pool) come from CommonRunOptions; the guard is polled once
// per 64-simulation block and a tripped budget aggregates the completed
// prefix of blocks; the trace's kSimulations counter is bumped per
// completed simulation and kFusedBlocks per completed block (thread-count
// invariant; no spans are opened here).
struct SpreadOptions : CommonRunOptions {
  uint32_t simulations = kReferenceSimulations;
};

// Runs options.simulations cascades of `seeds` and aggregates Γ(S). An
// empty seed set short-circuits to a zero estimate (σ(∅) = 0 exactly).
// `graph` may be either backend (GraphView converts implicitly from Graph).
SpreadEstimate EstimateSpread(const GraphView& graph, DiffusionKind kind,
                              std::span<const NodeId> seeds,
                              const SpreadOptions& options);

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_SPREAD_H_
