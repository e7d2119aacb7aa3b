// Live-stream Monte-Carlo estimation for the CELF family's marginal-gain
// loops (GREEDY, CELF, CELF++, EaSyIM).
//
// A StreamingScratch owns one reusable CascadeContext and one live Rng,
// so the two can never be half-set. The thousands of small estimates a
// greedy loop makes draw one continuous stream through the scalar cascade
// (diffusion/cascade.h) and never pay an O(n) clear. Estimation through it is always sequential and scalar: a
// live stream cannot be split across threads or fused blocks. Every other
// caller estimates on the fused kernel through EstimateSpread.
#ifndef IMBENCH_DIFFUSION_STREAMING_H_
#define IMBENCH_DIFFUSION_STREAMING_H_

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "diffusion/cascade.h"
#include "diffusion/spread.h"
#include "graph/graph_view.h"

namespace imbench {

class RunGuard;
class Trace;

// Two estimates from one batch of coupled simulations.
struct SpreadPair {
  SpreadEstimate base;      // Γ(S)
  SpreadEstimate extended;  // Γ(S ∪ extra), continued from the same cascade
};

class StreamingScratch {
 public:
  // Draws from Rng::ForStream(seed, 0), the stream every CELF-family
  // selection (and its pinned seeds) is drawn from.
  StreamingScratch(NodeId num_nodes, uint64_t seed)
      : context_(num_nodes), rng_(Rng::ForStream(seed, 0)) {}

  // Runs up to `simulations` cascades of `seeds` on the live stream,
  // polling `guard` before each, and aggregates the completed ones in
  // order. The trace's kSimulations counter grows by the completed count.
  SpreadEstimate Estimate(const GraphView& graph, DiffusionKind kind,
                          std::span<const NodeId> seeds, uint32_t simulations,
                          RunGuard* guard, Trace* trace);

  // CELF++'s coupled estimate: each simulation runs `seeds`, then
  // continues the same cascade from `extra` (CascadeContext::Continue), so
  // one batch yields samples of both Γ(S) and Γ(S ∪ extra). An empty
  // `extra` draws nothing more and makes both halves equal. Polling,
  // aggregation and tracing as in Estimate.
  SpreadPair EstimatePair(const GraphView& graph, DiffusionKind kind,
                          std::span<const NodeId> seeds,
                          std::span<const NodeId> extra, uint32_t simulations,
                          RunGuard* guard, Trace* trace);

 private:
  CascadeContext context_;
  Rng rng_;
};

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_STREAMING_H_
