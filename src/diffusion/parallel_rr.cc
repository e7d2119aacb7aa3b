#include "diffusion/parallel_rr.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/thread_pool.h"
#include "framework/fault.h"
#include "framework/trace.h"

namespace imbench {

ParallelRrSampler::ParallelRrSampler(const GraphView& graph,
                                     const SamplerOptions& options)
    : graph_(graph),
      options_(options),
      pool_(options.pool != nullptr ? options.pool : &ThreadPool::Shared()),
      lanes_(EffectiveThreads(options.threads)),
      use_fused_(options.engine == McEngine::kFused64 &&
                 options.kind == DiffusionKind::kIndependentCascade) {}

ParallelRrSampler::~ParallelRrSampler() = default;

RrBatchResult ParallelRrSampler::Generate(uint64_t seed, uint64_t count,
                                          RrCollection& out,
                                          std::vector<uint64_t>* widths) {
  RrBatchResult result;
  if (count == 0) return result;

  ParallelGuardState stop_state(options_.guard);
  if (lane_states_.empty()) {
    lane_states_.reserve(lanes_);
    for (uint32_t lane = 0; lane < lanes_; ++lane) {
      lane_states_.push_back(std::make_unique<LaneState>(
          graph_, options_.kind, stop_state.MakeLaneGuard()));
    }
  } else {
    // Refresh the guard copies so this call starts from the parent's
    // current budget state (the sampler keeps pointing at ls.guard).
    for (auto& ls : lane_states_) ls->guard = stop_state.MakeLaneGuard();
  }
  for (auto& ls : lane_states_) {
    ls->sampler.set_abort_flag(stop_state.abort_flag());
  }

  uint64_t generated_total = 0;
  // Per-set counters of merged-prefix sets only, summed in index order, so
  // the totals equal the sequential engine's for any lane count.
  uint64_t edges_examined = 0;
  uint64_t blocks_decoded = 0;
  auto flush_counters = [&] {
    TraceAdd(options_.trace, TraceCounter::kRrEdgesExamined, edges_examined);
    TraceAdd(options_.trace, TraceCounter::kNeighborBlocksDecoded,
             blocks_decoded);
  };
  bool draining = false;
  while (generated_total < count && !draining) {
    const uint64_t remaining = count - generated_total;
    // A wave covers a few batches per lane: enough to balance uneven set
    // sizes through the pool's dynamic cursor, small enough that buffered
    // (not yet merged) sets stay bounded.
    const uint64_t wave_target =
        std::min<uint64_t>(remaining, uint64_t{lanes_} * 4 * kBatchSets);
    const uint64_t num_batches = (wave_target + kBatchSets - 1) / kBatchSets;
    const uint64_t wave_base = next_index_;
    const uint64_t index_end = wave_base + wave_target;

    // Reset the persistent wave buffers: clear() keeps the capacities, so
    // after the first wave no allocation happens on the generation path.
    if (batches_.size() < num_batches) batches_.resize(num_batches);
    for (uint64_t b = 0; b < num_batches; ++b) {
      batches_[b].sets.Clear();
      batches_[b].complete = false;
    }
    pool_->ParallelFor(
        num_batches, lanes_, [&](uint64_t b, uint32_t lane) {
          LaneState& ls = *lane_states_[lane];
          RrBatch& sets = batches_[b].sets;
          const uint64_t first = wave_base + b * kBatchSets;
          const uint64_t n = std::min<uint64_t>(kBatchSets, index_end - first);
          if (use_fused_) {
            // Fused batches are all-or-nothing: guard/abort/fault are
            // polled once up front, then the kernel emits the whole batch
            // (one 64-lane block when the stream cursor is aligned; set i
            // is the same pure function of (seed, i) either way). A trip
            // leaves the batch incomplete and the merge truncates there,
            // so the corpus stays a prefix of the fused sequence.
            if (stop_state.aborted()) return;
            if (ls.guard.ShouldStop()) {
              stop_state.Trip(ls.guard.reason());
              return;
            }
            StopReason injected = StopReason::kNone;
            if (FaultFire(faultsite::kSamplerLane, &injected)) {
              stop_state.Trip(injected);
              return;
            }
            if (ls.fused == nullptr) {
              ls.fused = std::make_unique<FusedRrContext>(graph_);
            }
            ls.fused->GenerateRange(seed, first, static_cast<uint32_t>(n),
                                    sets.members, sets.sizes, &sets.widths);
            sets.blocks.assign(sets.size(), 0);  // the kernel keeps no count
            batches_[b].complete = true;
            return;
          }
          // The same range producer as the sequential engine, with this
          // lane's fault site: the lane dies before drawing its next set.
          // A trip (own guard, sibling abort or fault) leaves a prefix of
          // the batch; Propagate() withholds transient reasons from the
          // parent guard so a retry can resume from the same stream index.
          // Lanes carry no entry cap (the merge resolves it) and never
          // flush early: the whole batch is buffered until the merge.
          const ProduceResult produced = ls.sampler.Produce(
              seed, first, n, faultsite::kSamplerLane, 0,
              std::numeric_limits<uint64_t>::max(), sets);
          batches_[b].complete = produced.stop == ProduceResult::Stop::kNone;
          if (produced.stop == ProduceResult::Stop::kGuard) {
            stop_state.Trip(ls.guard.reason());
          } else if (produced.stop == ProduceResult::Stop::kFault) {
            stop_state.Trip(produced.injected);
          }
        });

    // Merge in index order; every set spliced here has the same contents
    // the sequential engine would have produced for its index. Each batch
    // lands as one block splice (bulk arena copy + size-many offsets).
    for (uint64_t b = 0; b < num_batches; ++b) {
      const RrBatch& sets = batches_[b].sets;
      const bool complete = batches_[b].complete;
      // Fault site: the arena append of this merged batch fails (simulated
      // OOM). The merge is single-threaded, so the failing batch index is
      // deterministic; nothing from it is appended and the stream cursor
      // stays put, so a retry resumes at exactly the dropped batch.
      StopReason injected = StopReason::kNone;
      if (sets.size() == 0 && !complete) {
        // Nothing to append; fall through to the incomplete-batch check.
      } else if (FaultFire(faultsite::kRrArenaGrow, &injected)) {
        result.stop = injected;
        if (!IsTransientStop(injected) && options_.guard != nullptr) {
          options_.guard->Trip(injected);
        }
        flush_counters();
        return result;
      }
      // Entry cap: the sampler's own safety valve. Resolved here in the
      // single-threaded merge, so the crossing set index is deterministic
      // regardless of thread count. The crossing set is kept (matching the
      // sequential engine's add-then-check), the rest of the batch is not.
      // Like the sequential engine, it does not trip the caller's
      // run-wide guard.
      size_t keep = sets.size();
      uint64_t keep_entries = sets.members.size();
      bool cap_hit = false;
      if (options_.max_total_entries != 0) {
        uint64_t running = out.TotalEntries();
        for (size_t i = 0; i < sets.size(); ++i) {
          running += sets.sizes[i];
          if (running > options_.max_total_entries) {
            keep = i + 1;
            keep_entries = running - out.TotalEntries();
            cap_hit = true;
            break;
          }
        }
      }
      out.AppendBatch(
          std::span<const NodeId>(sets.members.data(), keep_entries),
          std::span<const uint32_t>(sets.sizes.data(), keep));
      for (size_t i = 0; i < keep; ++i) {
        if (widths != nullptr) widths->push_back(sets.widths[i]);
        edges_examined += sets.widths[i];
        blocks_decoded += sets.blocks[i];
      }
      next_index_ += keep;
      generated_total += keep;
      result.generated += keep;
      if (cap_hit) {
        result.stop = StopReason::kMemory;
        flush_counters();
        return result;
      }
      if (!complete) {
        draining = true;
        break;
      }
    }
    if (stop_state.aborted()) draining = true;
  }

  stop_state.Propagate();
  result.stop = stop_state.reason();
  flush_counters();
  return result;
}

}  // namespace imbench
