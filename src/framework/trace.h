// Phase-level observability: nested trace spans and typed counters.
//
// A Trace records where a run spends its time and allocations, attributed
// to named phases ("sample", "select", "evaluate", ...) that algorithms and
// drivers open with Span RAII guards. Each span captures a monotonic start
// timestamp, its duration, the heap delta over its lifetime (via the
// memory.h process counters), and the inclusive delta of every typed
// counter (RR sets generated, MC simulations run, queue re-evaluations,
// guard polls, ...). Emitters produce JSON (--trace-out) and a human table.
//
// Determinism contract: counters are bumped only with values that are
// invariant under the thread count — engines count merged-prefix work on
// the coordinating thread, and guard polls are counted at the algorithms'
// sequential loop sites only, never inside parallel lanes. ToJson(false)
// therefore emits a byte-identical phase breakdown for --threads 1 and
// --threads 8 of the same run; timings and heap deltas, which are not
// deterministic, live in a separate "timings" object that the
// deterministic mode omits.
//
// A Trace is single-threaded by design: only the coordinating thread may
// open/close spans or Add() counters. All entry points are null-tolerant
// through the Span guard and TraceAdd() helper, so `Trace* trace = nullptr`
// costs nothing on instrumented hot paths.
#ifndef IMBENCH_FRAMEWORK_TRACE_H_
#define IMBENCH_FRAMEWORK_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/timer.h"

namespace imbench {

// Typed counters aggregated per span (inclusive) and per trace (total).
enum class TraceCounter : uint8_t {
  kRrSets = 0,          // RR sets appended to a collection
  kRrEdgesExamined,     // edges traversed while growing those sets
  kSimulations,         // Monte Carlo cascade simulations
  kNodeLookups,         // marginal-gain / score evaluations of a candidate
                        // node (the Appendix C "node lookups" metric)
  kQueueReevaluations,  // stale lazy-queue entries recomputed
  kSnapshots,           // snapshot subgraphs materialized (SG/PMC)
  kScoringRounds,       // full scoring sweeps (IMRank/EaSyIM/IRIE)
  kGuardPolls,          // RunGuard::ShouldStop() polls at sequential sites
  kRrSetsRepaired,      // warm-corpus sets regenerated after a mutation
  kRrSetsReused,        // warm-corpus sets served without resampling
  kCorpusEpochs,        // warm-corpus migrations to a newer graph epoch
  kFusedBlocks,         // 64-simulation fused MC blocks completed
  kBnbNodesExpanded,    // branch-and-bound search-tree nodes expanded
  kBnbPruned,           // B&B subtrees pruned by the submodular bound
  kGraphBytesMapped,    // bytes of .imgrf files mapped (CompactGraph::Open)
  kNeighborBlocksDecoded,  // compressed 64-neighbor blocks decoded. Every
                           // site records a per-unit count (per RR set, per
                           // MC simulation, per fused MC block) and adds it
                           // over the merged or completed prefix in index
                           // order, so the total is thread-count invariant.
                           // A fused LT block counts the out-blocks its
                           // push decodes (with weights) plus the in-blocks
                           // of its rare exact sweeps.
};
inline constexpr int kNumTraceCounters = 16;

// Short stable identifier used as the JSON key ("rr_sets", ...).
const char* TraceCounterName(TraceCounter counter);

using TraceCounterArray = std::array<uint64_t, kNumTraceCounters>;

// One closed (or still open) phase. Spans form a forest ordered by open
// time; `parent` indexes into Trace::spans() (-1 for roots).
struct TraceSpan {
  std::string name;
  int32_t parent = -1;
  int32_t depth = 0;
  double start_seconds = 0;    // relative to the Trace epoch
  double duration_seconds = 0;
  int64_t heap_delta_bytes = 0;  // CurrentHeapBytes() at close minus open
  TraceCounterArray counters{};  // inclusive: includes child spans
  bool closed = false;
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  // Bumps a counter on the innermost open span (and the trace totals).
  void Add(TraceCounter counter, uint64_t n = 1) {
    totals_[static_cast<int>(counter)] += n;
  }

  uint64_t Total(TraceCounter counter) const {
    return totals_[static_cast<int>(counter)];
  }
  const TraceCounterArray& totals() const { return totals_; }

  // Opens a nested span; returns its index. Prefer the Span RAII guard.
  int32_t OpenSpan(std::string_view name);
  // Closes the innermost open span; `id` must match it (LIFO, CHECKed).
  void CloseSpan(int32_t id);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  bool AllClosed() const { return stack_.empty(); }
  double ElapsedSeconds() const { return timer_.Seconds(); }

  // JSON document with "counters" totals and per-phase breakdowns. With
  // include_timings=false the output contains only thread-count-invariant
  // fields and is byte-identical across --threads settings; with true it
  // gains a "timings" object (per-span start/duration/heap delta, aligned
  // with "phases" by index). All spans must be closed.
  std::string ToJson(bool include_timings = true) const;

  // Writes ToJson(true) to `path`; returns false on I/O failure.
  bool WriteJsonFile(const std::string& path) const;

  // Indented human-readable phase table (time, heap delta, counters).
  void PrintTable(std::FILE* out) const;

 private:
  struct OpenFrame {
    int32_t span = -1;
    TraceCounterArray totals_at_open{};
    uint64_t heap_at_open = 0;
  };

  Timer timer_;  // epoch = Trace construction
  TraceCounterArray totals_{};
  std::vector<TraceSpan> spans_;
  std::vector<OpenFrame> stack_;
};

// RAII phase guard. Null-tolerant: with trace == nullptr construction and
// destruction are no-ops and perform no allocation.
class Span {
 public:
  Span(Trace* trace, std::string_view name)
      : trace_(trace), id_(trace ? trace->OpenSpan(name) : -1) {}
  ~Span() {
    if (trace_ != nullptr) trace_->CloseSpan(id_);
  }
  // Ends the span before the guard leaves scope (the destructor is then a
  // no-op), for phases that do not line up with a C++ block.
  void Close() {
    if (trace_ != nullptr) trace_->CloseSpan(id_);
    trace_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Trace* trace_;
  int32_t id_;
};

// Null-tolerant counter bump: the one way algorithms count their work.
inline void TraceAdd(Trace* trace, TraceCounter counter, uint64_t n = 1) {
  if (trace != nullptr && n != 0) trace->Add(counter, n);
}

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_TRACE_H_
