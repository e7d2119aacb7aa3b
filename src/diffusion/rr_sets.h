// Reverse-reachable (RR) set machinery shared by TIM+, IMM and RIS
// (Sec. 4.2).
//
// An RR set for root v is the set of nodes that reach v in a random
// live-edge instantiation of the graph:
//   * IC: each in-edge (u, v) is live independently with probability
//     W(u, v) — reverse BFS with per-edge coin flips.
//   * LT: each node keeps at most one live in-edge, chosen with probability
//     proportional to its weight (no in-edge with the residual probability
//     1 - Σ W) — a reverse random walk without revisits.
//
// Sampling goes through the RrEngine interface: set number i is always
// drawn from Rng::ForStream(seed, i) — root choice included — so a corpus
// depends only on (seed, count), never on the thread count or on how the
// work was scheduled. RrSampler is the sequential engine; ParallelRrSampler
// (diffusion/parallel_rr.h) fans batches across the shared thread pool and
// merges them in index order, bit-identical to the sequential engine.
// MakeRrEngine() picks between them, which is how TIM+/IMM/RIS select
// their sampling backend from one place.
#ifndef IMBENCH_DIFFUSION_RR_SETS_H_
#define IMBENCH_DIFFUSION_RR_SETS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/run_options.h"
#include "diffusion/cascade.h"
#include "diffusion/mc_engine.h"
#include "framework/run_guard.h"
#include "graph/graph_view.h"

namespace imbench {

class FusedRrContext;
class ThreadPool;
class Trace;

// Common constructor shape for the RR-set engines: diffusion kind plus the
// shared run controls. Shared by RrSampler, ParallelRrSampler and the
// MakeRrEngine() factory the algorithms use.
//
// CommonRunOptions fields, as the engines read them:
//   * `guard` is polled inside the reverse BFS/walk, so even a single
//     exploding RR set (supercritical IC) cannot overrun a budget:
//     generation stops mid-set and the truncated corpus is returned with
//     the trip's StopReason.
//   * `threads` picks the generation backend (1 = sequential, 0 = all
//     hardware). Corpus contents are identical for every value.
//   * `trace`: engines add the examined-edge count of every appended set
//     to kRrEdgesExamined, always from the coordinating thread and only
//     for the merged prefix, so the totals are thread-count-invariant.
//     Callers bump kRrSets themselves alongside Counters::rr_sets (RIS may
//     truncate a chunk after generation, and only the caller knows the
//     kept count).
//   * `seed` is unused here: the stream base is an explicit argument of
//     every Generate() call, because one engine may serve several corpora.
struct SamplerOptions : CommonRunOptions {
  DiffusionKind kind = DiffusionKind::kIndependentCascade;
  // MC kernel for batched set generation. kAuto resolves to the scalar
  // sampler: RR corpora feed the query service's single-set repair path,
  // which has no fused equivalent, so the bit-parallel kernel is strictly
  // opt-in here. kFused64 draws 64 consecutive stream indices per pass
  // (IC only; LT falls back to scalar). Either engine is deterministic and
  // thread-invariant on its own, but the two draw different coin streams,
  // so a fused corpus is not byte-identical to a scalar one.
  McEngine engine = McEngine::kAuto;
  // Cap on total node entries across the sets appended to one collection
  // (0 = unlimited). Crossing it stops generation with StopReason::kMemory
  // — the safety valve behind the paper's "Crashed" cells.
  uint64_t max_total_entries = 0;
};

// Outcome of one batched generation request.
struct RrBatchResult {
  uint64_t generated = 0;               // sets appended to the collection
  StopReason stop = StopReason::kNone;  // why generation stopped short
};

class RrCollection;

// Batched RR-set generation. Engines keep a running set index across
// calls: the j-th set ever generated is drawn from Rng::ForStream(seed, j),
// so callers must pass the same seed to every call on one engine.
class RrEngine {
 public:
  virtual ~RrEngine() = default;

  // Appends up to `count` RR sets to `out`. If `widths` is non-null, the
  // examined-edge count of each appended set is pushed in the same order
  // (the width counter used by TIM+'s KPT estimation and RIS's budget).
  // On a guard trip or entry-cap hit the appended sets form a prefix of
  // the deterministic set sequence and `stop` carries the reason; callers
  // bump Counters::rr_sets by `generated`, which keeps counts exact
  // without any atomics on the generation hot path.
  virtual RrBatchResult Generate(uint64_t seed, uint64_t count,
                                 RrCollection& out,
                                 std::vector<uint64_t>* widths = nullptr) = 0;

  // Moves the running set index: the next Generate() call draws its first
  // set from Rng::ForStream(seed, next_index). A fresh engine starts at 0;
  // the query service seeks to the corpus size so a warm corpus built by an
  // earlier (possibly discarded) engine is topped up with exactly the sets
  // a cold engine would have produced next.
  virtual void SeekStream(uint64_t next_index) = 0;
};

// One flat run of consecutive RR sets in the collection's own shape (all
// members back to back plus per-set sizes), with the per-set counters the
// engines report for the merged prefix only. The producer's output and the
// unit AppendBatch splices; buffers are cleared, not freed, between runs.
struct RrBatch {
  std::vector<NodeId> members;
  std::vector<uint32_t> sizes;
  std::vector<uint64_t> widths;  // edges examined per set
  std::vector<uint64_t> blocks;  // compressed in-blocks decoded per set
  size_t size() const { return sizes.size(); }
  void Clear() {
    members.clear();
    sizes.clear();
    widths.clear();
    blocks.clear();
  }
};

// How RrSampler::Produce ended. Every stop leaves `batch` holding a prefix
// of the requested range: a set cut short by a stop is never kept.
struct ProduceResult {
  enum class Stop : uint8_t {
    kNone,      // the whole range (or the flush budget) was produced
    kAborted,   // the abort flag was raised
    kGuard,     // the guard tripped; its reason() says why
    kFault,     // the fault site fired; `injected` is the simulated failure
    kEntryCap,  // the last kept set crossed max_total_entries
  };
  Stop stop = Stop::kNone;
  StopReason injected = StopReason::kNone;
};

// Sequential engine. Batched generation and the parallel engine's lanes
// share one range producer (Produce); the single-set entry points below
// run the same reverse BFS/walk.
class RrSampler : public RrEngine {
 public:
  // Sets drawn ahead of the one being sampled: each upcoming set's
  // (Rng::ForStream(seed, i), root) pair sits in a ring this long while its
  // root's in-adjacency is prefetched. A constant, not an option: it hides
  // a memory latency of the machine, not a property of the workload, and
  // no set depends on it.
  static constexpr uint32_t kLookahead = 16;

  RrSampler(const GraphView& graph, DiffusionKind kind,
            RunGuard* guard = nullptr);
  // SamplerOptions constructor; `threads` and `pool` are ignored (this is
  // the one-thread engine). `engine` selects the batched-generation kernel
  // (see SamplerOptions); the single-set entry points below are always
  // scalar.
  RrSampler(const GraphView& graph, const SamplerOptions& options);
  ~RrSampler() override;

  // Samples an RR set rooted at a uniform random node; appends its members
  // (root included) to `out` (cleared first). Returns the number of edges
  // examined.
  uint64_t Generate(Rng& rng, std::vector<NodeId>& out);

  // Same, with a caller-chosen root.
  uint64_t GenerateFromRoot(NodeId root, Rng& rng, std::vector<NodeId>& out);

  // Draws the set with global index `index`: rng = ForStream(seed, index),
  // root = rng.NextU32(n). The unit of determinism shared by the
  // sequential and parallel engines.
  uint64_t GenerateStream(uint64_t seed, uint64_t index,
                          std::vector<NodeId>& out);

  // The range producer: appends sets [first, first + count) to `batch`,
  // each exactly GenerateStream(seed, i). The next kLookahead sets' roots
  // are drawn ahead and their in-adjacency prefetched, so set i's misses
  // overlap with the sampling of the sets before it. Per set, in order:
  // the abort flag, the guard and FaultFire(fault_site) are checked before
  // it is drawn; the abort flag and guard are polled per node inside it; a
  // set cut short is dropped. With max_total_entries set, a set that takes
  // entries_before + batch entries past the cap is kept and ends the run
  // (add-then-check). The run also ends, with Stop::kNone, once the batch
  // holds `flush_entries` or more members, which bounds the batch buffer;
  // callers loop until their count is reached.
  ProduceResult Produce(uint64_t seed, uint64_t first, uint64_t count,
                        std::string_view fault_site, uint64_t entries_before,
                        uint64_t flush_entries, RrBatch& batch);

  RrBatchResult Generate(uint64_t seed, uint64_t count, RrCollection& out,
                         std::vector<uint64_t>* widths = nullptr) override;

  void SeekStream(uint64_t next_index) override { next_index_ = next_index; }

  // Hook for the parallel engine: an additional stop flag polled inside
  // the BFS/walk so a sibling lane's trip truncates this lane's in-flight
  // set too.
  void set_abort_flag(const std::atomic<bool>* abort) { abort_ = abort; }

 private:
  bool Aborted() const {
    return abort_ != nullptr && abort_->load(std::memory_order_relaxed);
  }
  bool PollStop() { return Aborted() || GuardShouldStop(guard_); }

  // Produce with the backend branch hoisted out of every per-set and
  // per-node loop.
  template <typename Backend>
  ProduceResult ProduceOn(const Backend& graph, uint64_t seed, uint64_t first,
                          uint64_t count, std::string_view fault_site,
                          uint64_t entries_before, uint64_t flush_entries,
                          RrBatch& batch);

  // One set from `root`, appended to `out` from its current end: the
  // reverse BFS (IC) or reverse walk (LT). Returns the edges examined.
  template <typename Backend>
  uint64_t Sample(const Backend& graph, NodeId root, Rng& rng,
                  std::vector<NodeId>& out);
  template <typename Backend>
  uint64_t SampleIc(const Backend& graph, NodeId root, Rng& rng,
                    std::vector<NodeId>& out);
  template <typename Backend>
  uint64_t SampleLt(const Backend& graph, NodeId root, Rng& rng,
                    std::vector<NodeId>& out);

  // Batched generation through the bit-parallel kernel: 64 consecutive
  // stream indices per pass, chunked so no pass crosses a lane-block
  // boundary. Guard/abort/fault are polled once per chunk (the fused unit
  // of work), so a trip truncates the corpus on a chunk boundary — still a
  // prefix of the fused engine's deterministic sequence.
  RrBatchResult GenerateFused(uint64_t seed, uint64_t count, RrCollection& out,
                              std::vector<uint64_t>* widths);

  // Allocates the visited-stamp array on first use. Deferred so a lane
  // sampler's stamp pages are first touched by the worker that will run
  // it (first-touch NUMA placement under the pinned pool).
  void EnsureStamps() {
    if (visited_stamp_.empty() && graph_.num_nodes() > 0) {
      visited_stamp_.assign(graph_.num_nodes(), 0);
    }
  }

  GraphView graph_;
  DiffusionKind kind_;
  RunGuard* guard_;
  Trace* trace_ = nullptr;
  const std::atomic<bool>* abort_ = nullptr;
  uint64_t max_total_entries_ = 0;
  uint64_t next_index_ = 0;  // stream cursor for batched generation
  uint32_t epoch_ = 0;
  std::vector<uint32_t> visited_stamp_;  // lazily sized (EnsureStamps)
  AdjScratch scratch_;  // compact-backend in-adjacency decode buffer
  // Produce's lookahead ring: the drawn generator and root of each of the
  // next kLookahead sets. Refilled by every Produce call.
  struct Pending {
    Rng rng;
    NodeId root = 0;
  };
  std::array<Pending, kLookahead> ring_;
  // Fused-path state: lazily constructed kernel scratch plus reusable
  // chunk buffers (cleared per chunk, never reallocated at steady state).
  bool use_fused_ = false;
  std::unique_ptr<FusedRrContext> fused_;
  std::vector<NodeId> fused_members_;
  std::vector<uint32_t> fused_sizes_;
  std::vector<uint64_t> fused_widths_;
};

// Picks the engine for the requested thread count: the sequential
// RrSampler for one thread (or a worker-less pool), ParallelRrSampler
// otherwise. The single construction point TIM+/IMM/RIS go through.
std::unique_ptr<RrEngine> MakeRrEngine(const GraphView& graph,
                                       const SamplerOptions& options);

// A corpus of RR sets stored in flat append-only arenas (CSR layout, the
// same flattening the reference TIM/IMM implementations use): one
// contiguous `members` array plus a `set_offsets` array for the forward
// direction, and an on-demand CSR inverted index for node -> set ids.
// Both directions are single contiguous allocations, so the greedy
// max-cover inner loops — the hottest loops of TIM+/IMM/RIS — iterate
// plain spans instead of chasing millions of per-set vector headers.
//
// The inverted index is an append-only cache over the first
// `indexed_sets_` sets, grouped per node in increasing set-id order (the
// iteration order the greedy relies on for determinism). Appends leave it
// alone; the next reader extends it in place over just the new tail (IMM's
// martingale rounds each append a tail and cover the whole corpus).
// TruncateTo and ReplaceSets change indexed sets, so they reset it to an
// extension from 0, the state FromArenas starts from; there is no second
// build path. Because the cache is filled lazily, concurrent const access
// is NOT safe while the index is stale; the engines only touch a
// collection from the coordinating thread.
class RrCollection {
 public:
  explicit RrCollection(NodeId num_nodes);

  // Copies one sampled set into the arena. Convenience wrapper over
  // AppendSet for tests and one-off callers.
  void Add(std::vector<NodeId> set) { AppendSet(set); }

  // Appends one set (a contiguous run of member ids) to the arena.
  void AppendSet(std::span<const NodeId> set);

  // Splices a whole batch in one shot: `sizes[i]` consecutive entries of
  // `members` form the i-th appended set. One bulk copy into the arena
  // plus `sizes.size()` offset pushes — no per-set allocation at all.
  void AppendBatch(std::span<const NodeId> members,
                   std::span<const uint32_t> sizes);

  // Pre-sizes the arenas for `sets` additional-or-total sets holding
  // `entries` total member ids (both are totals, not increments). Callers
  // with a corpus-size estimate (TIM+'s θ from the KPT phase) use this so
  // the final sampling phase doesn't re-grow the arena repeatedly.
  void Reserve(uint64_t sets, uint64_t entries);

  // Drops sets from the back until `size() == n`: an O(dropped) offset
  // rollback of the arenas (the inverted-index cache is reset, not
  // unwound). Lets RIS keep its exact per-set budget semantics under
  // batched generation.
  void TruncateTo(size_t n);

  // Replaces the sets named by `set_ids` (sorted ascending, unique) with
  // the flat batch `sizes[i]` consecutive entries of `members` — the same
  // producer shape as AppendBatch. One compaction pass rebuilds both
  // arenas, so the cost is O(TotalEntries) copies and zero resampling:
  // this is the mutation-repair primitive of the query service, which
  // regenerates only the invalidated sets and splices them back in place.
  // Set ids keep their meaning (set i remains stream i of the sampler).
  void ReplaceSets(std::span<const uint32_t> set_ids,
                   std::span<const NodeId> members,
                   std::span<const uint32_t> sizes);

  // Ids of every set containing at least one of `nodes`, sorted ascending
  // and deduplicated — the QuickIM-style invalidation query: an RR set's
  // sampled membership depends only on the in-edges of its member nodes,
  // so after a mutation touching those nodes these are exactly the sets
  // that must be repaired. Builds the inverted index on first use.
  std::vector<uint32_t> SetsContainingAny(std::span<const NodeId> nodes) const;

  // Raw arena views for checkpoint serialization (service/checkpoint.h):
  // the two forward arrays ARE the corpus, so a checkpoint is two block
  // writes plus a header.
  std::span<const NodeId> MembersArena() const { return members_; }
  std::span<const uint64_t> OffsetsArena() const { return set_offsets_; }

  // Rebuilds a collection from serialized arenas (checkpoint recovery).
  // Validates the CSR shape — offsets start at 0, ascend, end at
  // members.size(), and every member id is < num_nodes — and returns false
  // on malformed input without touching *out: a torn or tampered file must
  // fall back to a cold build, never produce a corpus that serves wrong
  // seeds.
  static bool FromArenas(NodeId num_nodes, std::vector<NodeId> members,
                         std::vector<uint64_t> offsets, RrCollection* out);

  size_t size() const {
    // Empty-guard keeps a moved-from collection at size 0 instead of
    // underflowing (the constructor always seeds one offset).
    return set_offsets_.empty() ? 0 : set_offsets_.size() - 1;
  }
  uint64_t TotalEntries() const { return members_.size(); }
  std::span<const NodeId> Set(size_t i) const {
    return std::span<const NodeId>(members_.data() + set_offsets_[i],
                                   set_offsets_[i + 1] - set_offsets_[i]);
  }

  // Exact heap bytes held by the corpus: the two forward arenas plus the
  // inverted-index arenas (zero until first built) and the object header.
  // This is the Fig. 8 memory metric for the RR-sketch family.
  uint64_t MemoryBytes() const;

  // Greedy max cover: picks k nodes maximizing the number of covered sets.
  // Returns the seeds and writes the covered fraction (coverage / size())
  // to `covered_fraction` if non-null. The arenas are left unmodified (the
  // inverted-index cache may be built). Two internal variants produce the
  // same seeds — ties always break to the largest node id — and are picked
  // by corpus size: a lazy max-heap for small corpora, exact degree
  // buckets (O(n + D + decrements), no log factor) for large ones.
  std::vector<NodeId> GreedyMaxCover(uint32_t k,
                                     double* covered_fraction = nullptr) const;

  // Same, restricted to the prefix of the first `limit` sets (set ids
  // >= limit are ignored for degrees and coverage; the fraction divides by
  // min(limit, size())). This is how the query service answers a query
  // over a warm corpus that has grown past the query's own θ: covering
  // exactly the prefix a cold corpus would contain keeps served seeds
  // byte-identical to a cold rebuild. limit >= size() degrades to the
  // plain overload.
  std::vector<NodeId> GreedyMaxCoverPrefix(
      uint32_t k, size_t limit, double* covered_fraction = nullptr) const;

 private:
  // Extends the node -> set-ids CSR (inv_offsets_ / inv_sets_) in place
  // over the sets appended since the last call: counts only the tail,
  // moves each old slice up (highest node first) and scatters the tail's
  // set ids after it.
  void EnsureInvertedIndex() const;
  // Drops the index back to "no set indexed", after a mutation that
  // rewrote or removed indexed sets.
  void ResetInvertedIndex();

  // Number of sets with id < limit containing v (prefix of v's slice).
  uint32_t PrefixDegree(NodeId v, size_t limit) const;

  // Both variants cover only set ids < limit (the prefix restriction).
  std::vector<NodeId> CoverLazyHeap(uint32_t k, size_t limit,
                                    double* covered_fraction) const;
  std::vector<NodeId> CoverDegreeBuckets(uint32_t k, size_t limit,
                                         double* covered_fraction) const;

  NodeId num_nodes_;
  std::vector<NodeId> members_;        // all sets, back to back
  std::vector<uint64_t> set_offsets_;  // size()+1 offsets into members_
  // Inverted-index cache over sets [0, indexed_sets_): set ids grouped by
  // node, ascending within each node's slice.
  mutable std::vector<uint64_t> inv_offsets_;  // num_nodes_+1 once built
  mutable std::vector<uint32_t> inv_sets_;
  mutable size_t indexed_sets_ = 0;
};

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_RR_SETS_H_
