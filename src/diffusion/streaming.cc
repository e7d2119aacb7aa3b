#include "diffusion/streaming.h"

#include <vector>

#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {

SpreadEstimate StreamingScratch::Estimate(const GraphView& graph,
                                          DiffusionKind kind,
                                          std::span<const NodeId> seeds,
                                          uint32_t simulations,
                                          RunGuard* guard, Trace* trace) {
  std::vector<NodeId> samples;
  samples.reserve(simulations);
  for (uint32_t i = 0; i < simulations; ++i) {
    if (GuardShouldStop(guard)) break;
    samples.push_back(context_.Simulate(graph, kind, seeds, rng_));
  }
  TraceAdd(trace, TraceCounter::kNeighborBlocksDecoded,
           context_.TakeBlocksDecoded());
  TraceAdd(trace, TraceCounter::kSimulations, samples.size());
  return SpreadEstimate::FromSamples(samples);
}

SpreadPair StreamingScratch::EstimatePair(const GraphView& graph,
                                          DiffusionKind kind,
                                          std::span<const NodeId> seeds,
                                          std::span<const NodeId> extra,
                                          uint32_t simulations,
                                          RunGuard* guard, Trace* trace) {
  std::vector<NodeId> base;
  std::vector<NodeId> extended;
  base.reserve(simulations);
  extended.reserve(simulations);
  for (uint32_t i = 0; i < simulations; ++i) {
    if (GuardShouldStop(guard)) break;
    base.push_back(context_.Simulate(graph, kind, seeds, rng_));
    extended.push_back(context_.Continue(graph, kind, extra, rng_));
  }
  TraceAdd(trace, TraceCounter::kNeighborBlocksDecoded,
           context_.TakeBlocksDecoded());
  TraceAdd(trace, TraceCounter::kSimulations, base.size());
  return {SpreadEstimate::FromSamples(base),
          SpreadEstimate::FromSamples(extended)};
}

}  // namespace imbench
