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
// RrSampler is the one sampling engine. Set number i is always drawn from
// Rng::ForStream(seed, i) — root choice included — so a corpus depends only
// on (seed, count), never on the lane count or on how the work was
// scheduled: lanes fill batches over the thread pool and a single-threaded
// merge splices them in index order.
#ifndef IMBENCH_DIFFUSION_RR_SETS_H_
#define IMBENCH_DIFFUSION_RR_SETS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/run_options.h"
#include "diffusion/cascade.h"
#include "framework/run_guard.h"
#include "graph/graph_view.h"

namespace imbench {

class ThreadPool;
class Trace;

// RrSampler's constructor shape: diffusion kind plus the shared run
// controls.
//
// CommonRunOptions fields, as the sampler reads them:
//   * `guard` is polled inside the reverse BFS/walk, so even a single
//     exploding RR set (supercritical IC) cannot overrun a budget:
//     generation stops mid-set and the truncated corpus is returned with
//     the trip's StopReason.
//   * `threads` is the lane count (0 = all hardware). A pool with no
//     workers runs one lane. Corpus contents are identical for every value.
//   * `trace`: the merge adds the examined-edge count of every appended
//     set to kRrEdgesExamined, always from the coordinating thread and
//     only for the merged prefix, so the totals are lane-count-invariant.
//     Callers bump kRrSets themselves alongside Counters::rr_sets (RIS may
//     truncate a chunk after generation, and only the caller knows the
//     kept count).
//   * `seed` is unused here: the stream base is an explicit argument of
//     every Generate() call, because one sampler may serve several corpora.
struct SamplerOptions : CommonRunOptions {
  DiffusionKind kind = DiffusionKind::kIndependentCascade;
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

// The RR sampling engine. Batched generation runs in waves: each lane
// draws a run of consecutive set indices into a private batch, then the
// caller merges the batches in index order. With one lane a wave is one
// batch that runs to the requested count or a 4096-entry flush bound;
// with L lanes it is 4L batches of 64 sets, balanced through the pool's
// dynamic cursor. Either way the corpus, the widths and the trace counters
// are the same.
class RrSampler {
 public:
  // Sets drawn ahead of the one being sampled: each upcoming set's
  // (Rng::ForStream(seed, i), root) pair sits in a ring this long while its
  // root's in-adjacency is prefetched. A constant, not an option: it hides
  // a memory latency of the machine, not a property of the workload, and
  // no set depends on it.
  static constexpr uint32_t kLookahead = 16;

  // One lane, no entry cap, no trace.
  RrSampler(const GraphView& graph, DiffusionKind kind,
            RunGuard* guard = nullptr);
  RrSampler(const GraphView& graph, const SamplerOptions& options);
  ~RrSampler();

  // Samples one RR set from a caller-chosen root; appends its members
  // (root included) to `out` (cleared first). Returns the number of edges
  // examined. Polls the caller's guard directly.
  uint64_t GenerateFromRoot(NodeId root, Rng& rng, std::vector<NodeId>& out);

  // Draws the set with global index `index`: rng = ForStream(seed, index),
  // root = rng.NextU32(n). The unit of determinism behind every corpus, and
  // the service's single-set repair primitive.
  uint64_t GenerateStream(uint64_t seed, uint64_t index,
                          std::vector<NodeId>& out);

  // Appends up to `count` RR sets to `out`, drawing them from the running
  // stream index: the j-th set this sampler ever generates is
  // ForStream(seed, j), so callers pass the same seed to every call. If
  // `widths` is non-null, the examined-edge count of each appended set is
  // pushed in the same order (the width counter used by TIM+'s KPT
  // estimation and RIS's budget). On a guard trip, fault or entry-cap hit
  // the appended sets form a prefix of the deterministic set sequence and
  // `stop` carries the reason; callers bump Counters::rr_sets by
  // `generated`, which keeps counts exact without any atomics on the
  // generation hot path.
  //
  // Stops, in index order. A lane checks its guard copy, the wave's abort
  // flag and the rr_sampler_lane fault site before drawing each set (and
  // the first two per node inside it); a set cut short is dropped and the
  // lane's batch ends there. The merge then checks, per set: the
  // rr_arena_grow fault site (the set is not appended), and the entry cap
  // (add-then-check: the crossing set is kept, and the stop is kMemory
  // without tripping the caller's guard). Transient faults never reach the
  // caller's guard either, so a retry resumes at the first missing index.
  RrBatchResult Generate(uint64_t seed, uint64_t count, RrCollection& out,
                         std::vector<uint64_t>* widths = nullptr);

  // Moves the running set index: the next Generate() call draws its first
  // set from Rng::ForStream(seed, next_index). A fresh sampler starts at 0;
  // the query service seeks to the corpus size so a warm corpus built by an
  // earlier (possibly discarded) sampler is topped up with exactly the sets
  // a cold sampler would have produced next.
  void SeekStream(uint64_t next_index) { next_index_ = next_index; }

 private:
  // A drawn-ahead set: its generator and root.
  struct Pending {
    Rng rng;
    NodeId root = 0;
  };

  // One lane's sampling state. Its stamp array and decode scratch survive
  // across waves and are allocated on the lane's first set, so their pages
  // are first touched by the worker that runs it (NUMA first-touch under a
  // pinned pool).
  struct Lane {
    RunGuard guard_copy;  // RunGuard is single-threaded: one copy per lane
    // Polled inside a set: &guard_copy during a wave, the caller's guard
    // in the single-set entry points.
    RunGuard* guard = nullptr;
    // The wave's shared stop state; null outside a wave.
    ParallelGuardState* wave = nullptr;
    uint32_t epoch = 0;
    std::vector<uint32_t> visited_stamp;
    AdjScratch scratch;  // compact-backend in-adjacency decode buffer
    std::array<Pending, kLookahead> ring;

    bool PollStop() {
      return (wave != nullptr && wave->aborted()) || GuardShouldStop(guard);
    }
  };

  // One lane's output for one run of consecutive set indices, in the
  // collection's own flat shape (all members back to back plus per-set
  // sizes), with the per-set counters the merge adds for the merged prefix
  // only. Buffers are cleared, not freed, between waves.
  struct Batch {
    std::vector<NodeId> members;
    std::vector<uint32_t> sizes;
    std::vector<uint64_t> widths;  // edges examined per set
    std::vector<uint64_t> blocks;  // compressed in-blocks decoded per set
    bool complete = false;         // false: a stop cut the run short
    size_t size() const { return sizes.size(); }
  };

  // The range producer: appends sets [first, first + count) to `batch`,
  // each exactly GenerateStream(seed, i). The next kLookahead sets' roots
  // are drawn ahead and their in-adjacency prefetched, so set i's misses
  // overlap with the sampling of the sets before it. Ends early, complete,
  // once the batch holds `flush_entries` or more members; ends incomplete
  // on a stop (see Generate), publishing a trip to the wave.
  void Produce(Lane& lane, uint64_t seed, uint64_t first, uint64_t count,
               uint64_t flush_entries, Batch& batch);
  // Produce with the backend branch hoisted out of every per-set and
  // per-node loop.
  template <typename Backend>
  void ProduceOn(const Backend& graph, Lane& lane, uint64_t seed,
                 uint64_t first, uint64_t count, uint64_t flush_entries,
                 Batch& batch);

  // One set from `root`, appended to `out` from its current end: the
  // reverse BFS (IC) or reverse walk (LT). Returns the edges examined.
  template <typename Backend>
  uint64_t Sample(const Backend& graph, Lane& lane, NodeId root, Rng& rng,
                  std::vector<NodeId>& out);
  template <typename Backend>
  uint64_t SampleIc(const Backend& graph, Lane& lane, NodeId root, Rng& rng,
                    std::vector<NodeId>& out);
  template <typename Backend>
  uint64_t SampleLt(const Backend& graph, Lane& lane, NodeId root, Rng& rng,
                    std::vector<NodeId>& out);

  GraphView graph_;
  DiffusionKind kind_;
  RunGuard* guard_;
  Trace* trace_ = nullptr;
  uint64_t max_total_entries_ = 0;
  ThreadPool* pool_ = nullptr;  // null with one lane
  uint64_t next_index_ = 0;     // stream cursor for batched generation
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<Batch> batches_;  // reusable wave buffers
};

// The sampler's older name and factory, kept for perfbench/perfbench.cc.
using RrEngine = RrSampler;
std::unique_ptr<RrSampler> MakeRrEngine(const GraphView& graph,
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
  // inverted-index cache may be built). Exact greedy over degree buckets
  // (O(n + D + decrements), no log factor); ties break to the largest node
  // id.
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
