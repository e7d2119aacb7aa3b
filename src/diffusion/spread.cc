#include "diffusion/spread.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "diffusion/fused_cascade.h"
#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {
namespace {

uint32_t BlockLanes(uint64_t block, uint32_t simulations) {
  const uint64_t begin = block * kFusedLanes;
  const uint64_t end =
      std::min<uint64_t>(begin + kFusedLanes, simulations);
  return static_cast<uint32_t>(end - begin);
}

}  // namespace

double SpreadEstimate::StdError() const {
  return simulations < 2
             ? 0.0
             : stddev / std::sqrt(static_cast<double>(simulations));
}

SpreadEstimate SpreadEstimate::FromSamples(std::span<const NodeId> samples) {
  SpreadEstimate estimate;
  estimate.simulations = static_cast<uint32_t>(samples.size());
  if (samples.empty()) return estimate;
  double sum = 0;
  for (const NodeId s : samples) sum += s;
  estimate.mean = sum / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double sq = 0;
    for (const NodeId s : samples) {
      const double d = s - estimate.mean;
      sq += d * d;
    }
    estimate.stddev = std::sqrt(sq / static_cast<double>(samples.size() - 1));
  }
  return estimate;
}

// The unit of work is one 64-simulation fused block: the guard is polled
// once per block, and a trip truncates the sample prefix on a block
// boundary. Blocks are handed to the pool's lanes; at one lane
// ParallelFor runs them inline in index order, which is the sequential
// schedule. A block's Γ vector and decode count are functions of
// (seed, block) alone, so aggregating the completed prefix in index order
// makes the estimate and the trace identical for every thread count.
SpreadEstimate EstimateSpread(const GraphView& graph, DiffusionKind kind,
                              std::span<const NodeId> seeds,
                              const SpreadOptions& options) {
  // σ(∅) = 0 exactly; skip the r pointless simulations (a cell cancelled
  // before its first pick reaches here with no seeds).
  if (seeds.empty()) return SpreadEstimate{};
  const uint64_t blocks =
      (static_cast<uint64_t>(options.simulations) + kFusedLanes - 1) /
      kFusedLanes;
  const Fanout fanout = ResolveFanout(options.threads, options.pool, blocks);
  const uint32_t lanes = fanout.lanes;
  ParallelGuardState stop_state(options.guard);
  std::vector<RunGuard> lane_guards(lanes, stop_state.MakeLaneGuard());
  // One coin-probability table, read by every lane's context.
  const std::vector<uint32_t> coin_probs =
      kind == DiffusionKind::kIndependentCascade
          ? FixedPointProbs(graph.weights())
          : std::vector<uint32_t>();
  std::vector<std::unique_ptr<FusedCascadeContext>> contexts(lanes);

  std::vector<NodeId> gammas(options.simulations);
  std::vector<uint8_t> block_done(blocks, 0);
  std::vector<uint64_t> block_decoded(blocks, 0);
  fanout.pool->ParallelFor(blocks, lanes, [&](uint64_t block, uint32_t lane) {
    if (stop_state.aborted()) return;
    RunGuard& guard = lane_guards[lane];
    if (guard.ShouldStop()) {
      stop_state.Trip(guard.reason());
      return;
    }
    if (contexts[lane] == nullptr) {
      contexts[lane] = std::make_unique<FusedCascadeContext>(graph, coin_probs);
    }
    block_decoded[block] = contexts[lane]->RunBlock(
        kind, seeds, options.seed, block,
        BlockLanes(block, options.simulations), &gammas[block * kFusedLanes]);
    block_done[block] = 1;
  });
  stop_state.Propagate();

  // Aggregate the longest gapless prefix of completed blocks.
  uint64_t completed = 0;
  uint64_t samples = 0;
  uint64_t decoded = 0;
  for (; completed < blocks && block_done[completed] != 0; ++completed) {
    samples += BlockLanes(completed, options.simulations);
    decoded += block_decoded[completed];
  }
  const SpreadEstimate estimate = SpreadEstimate::FromSamples(
      std::span<const NodeId>(gammas.data(), samples));
  TraceAdd(options.trace, TraceCounter::kNeighborBlocksDecoded, decoded);
  TraceAdd(options.trace, TraceCounter::kSimulations, estimate.simulations);
  TraceAdd(options.trace, TraceCounter::kFusedBlocks, completed);
  return estimate;
}

}  // namespace imbench
