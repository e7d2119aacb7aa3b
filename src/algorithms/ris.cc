#include "algorithms/ris.h"

#include <algorithm>

#include "common/check.h"
#include "diffusion/rr_sets.h"
#include "framework/trace.h"

namespace imbench {

SelectionResult Ris::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k >= 1 && input.k <= graph.num_nodes());

  SamplerOptions sampler_options;
  sampler_options.kind = input.diffusion;
  sampler_options.guard = input.guard;
  sampler_options.threads = input.threads;
  sampler_options.max_total_entries = options_.max_rr_entries;
  sampler_options.pool = input.pool;
  sampler_options.trace = input.trace;
  RrSampler sampler(graph, sampler_options);

  RrCollection sets(graph.num_nodes());

  // Sample until the examined-edge budget runs out (the paper's R steps).
  // Generation is chunked; the chunk size is a fixed constant — NOT derived
  // from input.threads — so the sampler sees the same call sequence and the
  // budget-crossing set index is identical for every thread count. The
  // reported per-set widths locate the exact crossing set; the over-sampled
  // tail of the final chunk is truncated away.
  constexpr uint64_t kChunkSets = 512;
  const double budget =
      options_.budget_multiplier *
      static_cast<double>(graph.num_edges() + graph.num_nodes());
  double examined = 0;
  StopReason stop = StopReason::kNone;
  std::vector<uint64_t> widths;
  widths.reserve(kChunkSets);
  bool reserved = false;
  Span sample_span(input.trace, "sample");
  while (examined < budget && stop == StopReason::kNone) {
    widths.clear();
    const size_t before = sets.size();
    const RrBatchResult batch =
        sampler.Generate(input.seed, kChunkSets, sets, &widths);
    uint64_t kept = batch.generated;
    for (size_t i = 0; i < widths.size(); ++i) {
      // +1: even an isolated root costs a step, so the loop terminates on
      // edgeless graphs too.
      examined += static_cast<double>(widths[i]) + 1.0;
      if (examined >= budget) {
        // The crossing set is kept (it was paid for); the rest of the
        // chunk was never part of the sequential-semantics sample.
        kept = static_cast<uint64_t>(i) + 1;
        break;
      }
    }
    if (kept < batch.generated) {
      sets.TruncateTo(before + kept);
    } else if (batch.stop != StopReason::kNone) {
      // Only a chunk that was not budget-truncated can propagate the
      // sampler's stop: after truncation the kept corpus never reached the
      // cap, and the budget itself is the reason the loop ends.
      stop = batch.stop;
    }
    if (input.counters != nullptr) input.counters->rr_sets += kept;
    TraceAdd(input.trace, TraceCounter::kRrSets, kept);
    if (batch.generated == 0 && batch.stop == StopReason::kNone) break;
    // Project the final corpus size off the first chunk's budget burn rate
    // and pre-size the arena once: sets-per-step and entries-per-set are
    // stable across chunks, so this usually lands within one re-grow of
    // the final footprint. Purely a reservation — contents and the budget
    // crossing are unaffected.
    if (!reserved && sets.size() > 0 && examined > 0) {
      reserved = true;
      const double sets_per_step =
          static_cast<double>(sets.size()) / examined;
      const uint64_t projected_sets = static_cast<uint64_t>(
          budget * sets_per_step + static_cast<double>(kChunkSets));
      const uint64_t mean_entries =
          (sets.TotalEntries() + sets.size() - 1) / sets.size();
      uint64_t estimate = projected_sets * mean_entries;
      if (options_.max_rr_entries != 0) {
        estimate = std::min(estimate, options_.max_rr_entries);
      }
      sets.Reserve(projected_sets, estimate);
    }
  }
  sample_span.Close();

  // Max cover over the partial corpus is still the best-effort answer.
  SelectionResult result;
  double covered_fraction = 0;
  {
    Span select_span(input.trace, "select");
    result.seeds = sets.GreedyMaxCover(input.k, &covered_fraction);
  }
  result.internal_spread_estimate =
      covered_fraction * static_cast<double>(graph.num_nodes());
  result.stop_reason = stop;
  return result;
}

}  // namespace imbench
