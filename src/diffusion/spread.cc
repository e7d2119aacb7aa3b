#include "diffusion/spread.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "common/thread_pool.h"
#include "diffusion/fused_cascade.h"
#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// Index-order aggregation: summing in a fixed order keeps the floating-
// point result bit-identical regardless of which lanes produced the
// samples.
SpreadEstimate Aggregate(const std::vector<NodeId>& samples) {
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

SpreadEstimate EstimateStreaming(const GraphView& graph, DiffusionKind kind,
                                 std::span<const NodeId> seeds,
                                 const SpreadOptions& options) {
  CascadeContext& context = options.streaming->context();
  Rng& rng = options.streaming->rng();
  std::vector<NodeId> samples;
  samples.reserve(options.simulations);
  for (uint32_t i = 0; i < options.simulations; ++i) {
    if (GuardShouldStop(options.guard)) break;
    samples.push_back(context.Simulate(graph, kind, seeds, rng));
  }
  // Sequential site: this context's decode count is thread-invariant.
  TraceAdd(options.trace, TraceCounter::kNeighborBlocksDecoded,
           context.TakeBlocksDecoded());
  return Aggregate(samples);
}

SpreadEstimate EstimateSequential(const GraphView& graph, DiffusionKind kind,
                                  std::span<const NodeId> seeds,
                                  const SpreadOptions& options) {
  CascadeContext context(graph.num_nodes());
  std::vector<NodeId> samples;
  samples.reserve(options.simulations);
  for (uint32_t i = 0; i < options.simulations; ++i) {
    if (GuardShouldStop(options.guard)) break;
    Rng rng = Rng::ForStream(options.seed, i);
    samples.push_back(context.Simulate(graph, kind, seeds, rng));
  }
  // Sequential site: this context's decode count is thread-invariant.
  TraceAdd(options.trace, TraceCounter::kNeighborBlocksDecoded,
           context.TakeBlocksDecoded());
  return Aggregate(samples);
}

SpreadEstimate EstimateParallel(const GraphView& graph, DiffusionKind kind,
                                std::span<const NodeId> seeds,
                                const SpreadOptions& options,
                                ThreadPool& pool, uint32_t lanes) {
  ParallelGuardState stop_state(options.guard);
  std::vector<RunGuard> lane_guards(lanes, stop_state.MakeLaneGuard());
  std::vector<std::unique_ptr<CascadeContext>> contexts;
  contexts.reserve(lanes);
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    contexts.push_back(std::make_unique<CascadeContext>(graph.num_nodes()));
  }

  // -1 marks "not run" so a guard trip yields a clean prefix below.
  std::vector<int64_t> samples(options.simulations, -1);
  pool.ParallelFor(
      options.simulations, lanes, [&](uint64_t i, uint32_t lane) {
        if (stop_state.aborted()) return;
        RunGuard& guard = lane_guards[lane];
        if (guard.ShouldStop()) {
          stop_state.Trip(guard.reason());
          return;
        }
        Rng rng = Rng::ForStream(options.seed, i);
        samples[i] = contexts[lane]->Simulate(graph, kind, seeds, rng);
      });
  stop_state.Propagate();

  // Aggregate the completed prefix in index order. On a full run this is
  // all simulations and the result matches the sequential path bit for
  // bit; on a trip it is the longest prefix with no gaps, mirroring the
  // sequential path's early break.
  std::vector<NodeId> prefix;
  prefix.reserve(options.simulations);
  for (uint32_t i = 0; i < options.simulations; ++i) {
    if (samples[i] < 0) break;
    prefix.push_back(static_cast<NodeId>(samples[i]));
  }
  return Aggregate(prefix);
}

uint32_t BlockLanes(uint64_t block, uint32_t simulations) {
  const uint64_t begin = block * kFusedLanes;
  const uint64_t end =
      std::min<uint64_t>(begin + kFusedLanes, simulations);
  return static_cast<uint32_t>(end - begin);
}

// The fused engine's unit of work is one 64-simulation block: the guard is
// polled once per block, and a trip truncates the sample prefix on the
// block boundary — identically for the sequential and parallel schedules.
// A block's decode count is a function of (seed, block) too, so both
// schedules trace the sum over the same completed prefix.
SpreadEstimate EstimateFusedSequential(const GraphView& graph, DiffusionKind kind,
                                       std::span<const NodeId> seeds,
                                       const SpreadOptions& options,
                                       uint64_t* completed_blocks) {
  const uint64_t blocks =
      (static_cast<uint64_t>(options.simulations) + kFusedLanes - 1) /
      kFusedLanes;
  FusedCascadeContext context(graph);
  std::vector<NodeId> samples;
  samples.reserve(options.simulations);
  NodeId gamma[kFusedLanes];
  uint64_t decoded = 0;
  for (uint64_t block = 0; block < blocks; ++block) {
    if (GuardShouldStop(options.guard)) break;
    const uint32_t lanes = BlockLanes(block, options.simulations);
    decoded += context.RunBlock(kind, seeds, options.seed, block, lanes, gamma);
    samples.insert(samples.end(), gamma, gamma + lanes);
    ++*completed_blocks;
  }
  TraceAdd(options.trace, TraceCounter::kNeighborBlocksDecoded, decoded);
  return Aggregate(samples);
}

SpreadEstimate EstimateFusedParallel(const GraphView& graph, DiffusionKind kind,
                                     std::span<const NodeId> seeds,
                                     const SpreadOptions& options,
                                     ThreadPool& pool, uint32_t lanes,
                                     uint64_t* completed_blocks) {
  const uint64_t blocks =
      (static_cast<uint64_t>(options.simulations) + kFusedLanes - 1) /
      kFusedLanes;
  ParallelGuardState stop_state(options.guard);
  std::vector<RunGuard> lane_guards(lanes, stop_state.MakeLaneGuard());
  std::vector<std::unique_ptr<FusedCascadeContext>> contexts(lanes);

  std::vector<NodeId> gammas(options.simulations);
  std::vector<uint8_t> block_done(blocks, 0);
  std::vector<uint64_t> block_decoded(blocks, 0);
  pool.ParallelFor(blocks, lanes, [&](uint64_t block, uint32_t lane) {
    if (stop_state.aborted()) return;
    RunGuard& guard = lane_guards[lane];
    if (guard.ShouldStop()) {
      stop_state.Trip(guard.reason());
      return;
    }
    if (contexts[lane] == nullptr) {
      contexts[lane] = std::make_unique<FusedCascadeContext>(graph);
    }
    block_decoded[block] = contexts[lane]->RunBlock(
        kind, seeds, options.seed, block,
        BlockLanes(block, options.simulations), &gammas[block * kFusedLanes]);
    block_done[block] = 1;
  });
  stop_state.Propagate();

  // Aggregate the longest gapless prefix of completed blocks in index
  // order — bit-identical to the sequential fused path for any thread
  // count, and block-aligned on a trip just like its early break.
  std::vector<NodeId> prefix;
  prefix.reserve(options.simulations);
  uint64_t decoded = 0;
  for (uint64_t block = 0; block < blocks; ++block) {
    if (block_done[block] == 0) break;
    const uint32_t block_lanes = BlockLanes(block, options.simulations);
    const NodeId* begin = &gammas[block * kFusedLanes];
    prefix.insert(prefix.end(), begin, begin + block_lanes);
    decoded += block_decoded[block];
    ++*completed_blocks;
  }
  TraceAdd(options.trace, TraceCounter::kNeighborBlocksDecoded, decoded);
  return Aggregate(prefix);
}

McEngine ResolveEngine(const SpreadOptions& options) {
  if (options.engine != McEngine::kAuto) return options.engine;
  return options.streaming == nullptr && options.simulations >= kFusedLanes
             ? McEngine::kFused64
             : McEngine::kScalar;
}

}  // namespace

double SpreadEstimate::StdError() const {
  return simulations < 2
             ? 0.0
             : stddev / std::sqrt(static_cast<double>(simulations));
}

SpreadEstimate EstimateSpread(const GraphView& graph, DiffusionKind kind,
                              std::span<const NodeId> seeds,
                              const SpreadOptions& options) {
  // σ(∅) = 0 exactly; skip the r pointless simulations (a cell cancelled
  // before its first pick reaches here with no seeds).
  if (seeds.empty()) return SpreadEstimate{};
  const McEngine engine = ResolveEngine(options);
  IMBENCH_CHECK_MSG(
      options.streaming == nullptr || engine != McEngine::kFused64,
      "streaming spread estimation cannot use the fused engine");
  SpreadEstimate estimate;
  uint64_t fused_blocks = 0;
  if (options.streaming != nullptr) {
    estimate = EstimateStreaming(graph, kind, seeds, options);
  } else {
    const uint32_t threads = EffectiveThreads(options.threads);
    ThreadPool& pool =
        options.pool != nullptr ? *options.pool : ThreadPool::Shared();
    const bool sequential = threads <= 1 || pool.worker_count() == 0;
    if (engine == McEngine::kFused64) {
      estimate = sequential || options.simulations <= kFusedLanes
                     ? EstimateFusedSequential(graph, kind, seeds, options,
                                               &fused_blocks)
                     : EstimateFusedParallel(graph, kind, seeds, options,
                                             pool, threads, &fused_blocks);
    } else if (sequential || options.simulations <= 1) {
      estimate = EstimateSequential(graph, kind, seeds, options);
    } else {
      estimate = EstimateParallel(graph, kind, seeds, options, pool, threads);
    }
  }
  // Completed-simulation and fused-block counts are aggregated on this
  // thread and identical for every thread count, so the trace stays
  // deterministic.
  TraceAdd(options.trace, TraceCounter::kSimulations, estimate.simulations);
  TraceAdd(options.trace, TraceCounter::kFusedBlocks, fused_blocks);
  return estimate;
}

}  // namespace imbench
