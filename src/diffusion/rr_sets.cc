#include "diffusion/rr_sets.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "diffusion/fused_cascade.h"
#include "diffusion/parallel_rr.h"
#include "framework/fault.h"
#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// Corpus size at which GreedyMaxCover switches from the lazy max-heap to
// the exact degree-bucket variant. Below this the heap's log factor is
// noise and its smaller working set wins; above it the bucket variant's
// O(n + D + decrements) walk over contiguous arrays is strictly cheaper.
// Both variants produce identical seeds, so the threshold is purely a
// performance knob (and deterministic: size() never depends on threads).
constexpr size_t kDegreeBucketThreshold = 4096;

// Batched Generate splices its batch into the collection once the batch
// holds this many members: the buffer stays a few pages however large
// single sets get (supercritical IC), so it adds nothing measurable to
// peak heap, and one ring restart per flush costs nothing measurable.
constexpr uint64_t kFlushEntries = uint64_t{1} << 12;

// Stage-2 distance: a pending set's adjacency is prefetched this many sets
// before it is sampled, half a ring after its offsets were.
constexpr uint32_t kStage2Distance = RrSampler::kLookahead / 2;

}  // namespace

RrSampler::RrSampler(const GraphView& graph, DiffusionKind kind,
                     RunGuard* guard)
    : graph_(graph), kind_(kind), guard_(guard) {}

RrSampler::RrSampler(const GraphView& graph, const SamplerOptions& options)
    : graph_(graph),
      kind_(options.kind),
      guard_(options.guard),
      trace_(options.trace),
      max_total_entries_(options.max_total_entries),
      // kAuto stays scalar for RR generation; the fused kernel is opt-in
      // and IC-only (see SamplerOptions::engine).
      use_fused_(options.engine == McEngine::kFused64 &&
                 options.kind == DiffusionKind::kIndependentCascade) {}

RrSampler::~RrSampler() = default;

uint64_t RrSampler::Generate(Rng& rng, std::vector<NodeId>& out) {
  return GenerateFromRoot(rng.NextU32(graph_.num_nodes()), rng, out);
}

uint64_t RrSampler::GenerateFromRoot(NodeId root, Rng& rng,
                                     std::vector<NodeId>& out) {
  out.clear();
  EnsureStamps();
  return graph_.Visit(
      [&](const auto& graph) { return Sample(graph, root, rng, out); });
}

uint64_t RrSampler::GenerateStream(uint64_t seed, uint64_t index,
                                   std::vector<NodeId>& out) {
  Rng rng = Rng::ForStream(seed, index);
  return Generate(rng, out);
}

ProduceResult RrSampler::Produce(uint64_t seed, uint64_t first, uint64_t count,
                                 std::string_view fault_site,
                                 uint64_t entries_before,
                                 uint64_t flush_entries, RrBatch& batch) {
  EnsureStamps();
  return graph_.Visit([&](const auto& graph) {
    return ProduceOn(graph, seed, first, count, fault_site, entries_before,
                     flush_entries, batch);
  });
}

template <typename Backend>
ProduceResult RrSampler::ProduceOn(const Backend& graph, uint64_t seed,
                                   uint64_t first, uint64_t count,
                                   std::string_view fault_site,
                                   uint64_t entries_before,
                                   uint64_t flush_entries, RrBatch& batch) {
  using Stop = ProduceResult::Stop;
  // Slot i % kLookahead of the ring holds set i's generator and root,
  // drawn kLookahead sets early. Both are pure functions of
  // (seed, first + i), so drawing them early changes no set.
  const NodeId n = graph.num_nodes();
  uint64_t drawn = 0;
  auto draw_next = [&] {
    Pending& p = ring_[drawn % kLookahead];
    p.rng = Rng::ForStream(seed, first + drawn);
    p.root = p.rng.NextU32(n);
    graph.PrefetchInOffsets(p.root);  // stage 1
    ++drawn;
  };
  while (drawn < std::min<uint64_t>(count, kLookahead)) draw_next();
  // The first sets get their stage 2 at once: their offsets are already
  // in flight together, and a short range (a parallel lane's batch) would
  // otherwise sample them unprefetched.
  for (uint64_t i = 0; i < std::min<uint64_t>(drawn, kStage2Distance); ++i) {
    graph.PrefetchInAdjacency(ring_[i].root);
  }

  ProduceResult result;
  for (uint64_t i = 0; i < count; ++i) {
    if (i + kStage2Distance < drawn) {
      graph.PrefetchInAdjacency(ring_[(i + kStage2Distance) % kLookahead].root);
    }
    if (Aborted()) {
      result.stop = Stop::kAborted;
      break;
    }
    if (GuardShouldStop(guard_)) {
      result.stop = Stop::kGuard;
      break;
    }
    // Fault site: checked before the set is drawn, so the caller's stream
    // cursor stays on the failed index and a retry regenerates exactly
    // the missing tail.
    if (FaultFire(fault_site, &result.injected)) {
      result.stop = Stop::kFault;
      break;
    }
    Pending& p = ring_[i % kLookahead];
    const size_t base = batch.members.size();
    scratch_.blocks_decoded = 0;
    const uint64_t width = Sample(graph, p.root, p.rng, batch.members);
    // A stop mid-set leaves a truncated set; drop it so the batch stays a
    // prefix of the deterministic sequence.
    if (GuardStopped(guard_)) {
      batch.members.resize(base);
      result.stop = Stop::kGuard;
      break;
    }
    if (Aborted()) {
      batch.members.resize(base);
      result.stop = Stop::kAborted;
      break;
    }
    batch.sizes.push_back(static_cast<uint32_t>(batch.members.size() - base));
    batch.widths.push_back(width);
    batch.blocks.push_back(scratch_.blocks_decoded);
    if (drawn < count) draw_next();  // refills the slot just consumed
    if (max_total_entries_ != 0 &&
        entries_before + batch.members.size() > max_total_entries_) {
      result.stop = Stop::kEntryCap;
      break;
    }
    if (batch.members.size() >= flush_entries) break;
  }
  return result;
}

RrBatchResult RrSampler::Generate(uint64_t seed, uint64_t count,
                                  RrCollection& out,
                                  std::vector<uint64_t>* widths) {
  if (use_fused_) return GenerateFused(seed, count, out, widths);
  using Stop = ProduceResult::Stop;
  RrBatchResult result;
  uint64_t edges_examined = 0;
  uint64_t blocks_decoded = 0;
  RrBatch batch;  // released on return: no memory held between calls
  while (result.generated < count) {
    batch.Clear();
    const ProduceResult produced =
        Produce(seed, next_index_, count - result.generated,
                faultsite::kRrArenaGrow, out.TotalEntries(), kFlushEntries,
                batch);
    // Only kept sets reach the arena and the counters: a set dropped by a
    // stop is never counted, so the totals match the parallel engine's
    // merged prefix exactly.
    out.AppendBatch(batch.members, batch.sizes);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (widths != nullptr) widths->push_back(batch.widths[i]);
      edges_examined += batch.widths[i];
      blocks_decoded += batch.blocks[i];
    }
    next_index_ += batch.size();
    result.generated += batch.size();
    if (produced.stop == Stop::kNone) continue;
    if (produced.stop == Stop::kGuard) {
      result.stop = guard_->reason();
    } else if (produced.stop == Stop::kFault) {
      // A transient fault stops this batch without tripping the caller's
      // guard; a fatal reason simulates a budget trip through the normal
      // sticky path.
      result.stop = produced.injected;
      if (!IsTransientStop(produced.injected) && guard_ != nullptr) {
        guard_->Trip(produced.injected);
      }
    } else if (produced.stop == Stop::kEntryCap) {
      // The entry cap is the sampler's own safety valve: report kMemory
      // but leave the caller's run-wide guard alone so the post-selection
      // evaluation of the partial seed set still runs.
      result.stop = StopReason::kMemory;
    }
    break;
  }
  if (result.stop == StopReason::kNone && GuardStopped(guard_)) {
    result.stop = guard_->reason();
  }
  // Batched Generate is a coordinating site: lane samplers run with a null
  // trace and report per-set counts to their own coordinator, so the
  // totals stay thread-count invariant.
  TraceAdd(trace_, TraceCounter::kRrEdgesExamined, edges_examined);
  TraceAdd(trace_, TraceCounter::kNeighborBlocksDecoded, blocks_decoded);
  return result;
}

RrBatchResult RrSampler::GenerateFused(uint64_t seed, uint64_t count,
                                       RrCollection& out,
                                       std::vector<uint64_t>* widths) {
  RrBatchResult result;
  if (fused_ == nullptr) fused_ = std::make_unique<FusedRrContext>(graph_);
  uint64_t edges_examined = 0;
  while (result.generated < count) {
    if (abort_ != nullptr && abort_->load(std::memory_order_relaxed)) break;
    if (GuardShouldStop(guard_)) {
      result.stop = guard_->reason();
      break;
    }
    // Fault site: the same simulated-OOM hook as the scalar loop, fired
    // once per chunk (the fused unit of work). The stream cursor stays on
    // the first ungenerated index, so a retry regenerates exactly the
    // missing tail.
    StopReason injected = StopReason::kNone;
    if (FaultFire(faultsite::kRrArenaGrow, &injected)) {
      result.stop = injected;
      if (!IsTransientStop(injected) && guard_ != nullptr) {
        guard_->Trip(injected);
      }
      break;
    }
    // A chunk never crosses a 64-lane block boundary, so the entry-cap
    // resolution below buffers at most one kernel pass.
    const uint64_t chunk = std::min<uint64_t>(
        count - result.generated, kFusedLanes - next_index_ % kFusedLanes);
    fused_members_.clear();
    fused_sizes_.clear();
    fused_widths_.clear();
    fused_->GenerateRange(seed, next_index_, static_cast<uint32_t>(chunk),
                          fused_members_, fused_sizes_, &fused_widths_);
    size_t offset = 0;
    bool cap_hit = false;
    for (size_t i = 0; i < fused_sizes_.size(); ++i) {
      out.AppendSet(std::span<const NodeId>(fused_members_.data() + offset,
                                            fused_sizes_[i]));
      offset += fused_sizes_[i];
      if (widths != nullptr) widths->push_back(fused_widths_[i]);
      edges_examined += fused_widths_[i];
      ++next_index_;
      ++result.generated;
      // Add-then-check, exactly like the scalar engine: the crossing set
      // is kept, the rest of the chunk is dropped (the cursor has not
      // advanced past the kept prefix, so nothing is lost).
      if (max_total_entries_ != 0 && out.TotalEntries() > max_total_entries_) {
        result.stop = StopReason::kMemory;
        cap_hit = true;
        break;
      }
    }
    if (cap_hit) break;
  }
  if (result.stop == StopReason::kNone && GuardStopped(guard_)) {
    result.stop = guard_->reason();
  }
  TraceAdd(trace_, TraceCounter::kRrEdgesExamined, edges_examined);
  return result;
}

template <typename Backend>
uint64_t RrSampler::Sample(const Backend& graph, NodeId root, Rng& rng,
                           std::vector<NodeId>& out) {
  ++epoch_;
  return kind_ == DiffusionKind::kIndependentCascade
             ? SampleIc(graph, root, rng, out)
             : SampleLt(graph, root, rng, out);
}

template <typename Backend>
uint64_t RrSampler::SampleIc(const Backend& graph, NodeId root, Rng& rng,
                             std::vector<NodeId>& out) {
  uint64_t edges_examined = 0;
  visited_stamp_[root] = epoch_;
  out.push_back(root);
  for (size_t head = out.size() - 1; head < out.size(); ++head) {
    if (PollStop()) break;  // truncated set: run is draining
    const NodeId v = out[head];
    // The same two stages inside the set: a member's offsets are
    // prefetched when it is queued, its adjacency one expansion before
    // its own.
    if (head + 1 < out.size()) graph.PrefetchInAdjacency(out[head + 1]);
    const auto [sources, weights] = InAdjacency(graph, v, scratch_);
    edges_examined += sources.size();
    for (size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      if (visited_stamp_[u] == epoch_) continue;
      if (rng.NextDouble() < weights[i]) {
        visited_stamp_[u] = epoch_;
        graph.PrefetchInOffsets(u);
        out.push_back(u);
      }
    }
  }
  return edges_examined;
}

template <typename Backend>
uint64_t RrSampler::SampleLt(const Backend& graph, NodeId root, Rng& rng,
                             std::vector<NodeId>& out) {
  // Under LT's live-edge view each node activates via at most one
  // in-neighbor, so the RR set is a simple path walked backwards until the
  // residual no-edge event fires or the walk bites its own tail.
  uint64_t edges_examined = 0;
  visited_stamp_[root] = epoch_;
  out.push_back(root);
  NodeId v = root;
  while (!PollStop()) {
    const auto [sources, weights] = InAdjacency(graph, v, scratch_);
    if (sources.empty()) break;
    edges_examined += sources.size();
    double r = rng.NextDouble();
    NodeId next = kInvalidNode;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (r < weights[i]) {
        next = sources[i];
        break;
      }
      r -= weights[i];
    }
    if (next == kInvalidNode) break;              // residual: no live in-edge
    if (visited_stamp_[next] == epoch_) break;    // cycle
    visited_stamp_[next] = epoch_;
    out.push_back(next);
    v = next;
  }
  return edges_examined;
}

std::unique_ptr<RrEngine> MakeRrEngine(const GraphView& graph,
                                       const SamplerOptions& options) {
  const uint32_t threads = EffectiveThreads(options.threads);
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Shared();
  if (threads <= 1 || pool.worker_count() == 0) {
    return std::make_unique<RrSampler>(graph, options);
  }
  return std::make_unique<ParallelRrSampler>(graph, options);
}

RrCollection::RrCollection(NodeId num_nodes) : num_nodes_(num_nodes) {
  set_offsets_.push_back(0);
}

bool RrCollection::FromArenas(NodeId num_nodes, std::vector<NodeId> members,
                              std::vector<uint64_t> offsets,
                              RrCollection* out) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != members.size()) {
    return false;
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  for (const NodeId v : members) {
    if (v >= num_nodes) return false;
  }
  *out = RrCollection(num_nodes);
  out->members_ = std::move(members);
  out->set_offsets_ = std::move(offsets);
  return true;
}

void RrCollection::AppendSet(std::span<const NodeId> set) {
  for (const NodeId v : set) IMBENCH_CHECK(v < num_nodes_);
  members_.insert(members_.end(), set.begin(), set.end());
  set_offsets_.push_back(members_.size());
}

void RrCollection::AppendBatch(std::span<const NodeId> members,
                               std::span<const uint32_t> sizes) {
  for (const NodeId v : members) IMBENCH_CHECK(v < num_nodes_);
  members_.insert(members_.end(), members.begin(), members.end());
  uint64_t offset = set_offsets_.back();
  uint64_t spliced = 0;
  for (const uint32_t size : sizes) {
    offset += size;
    set_offsets_.push_back(offset);
    spliced += size;
  }
  IMBENCH_CHECK(spliced == members.size());
}

void RrCollection::Reserve(uint64_t sets, uint64_t entries) {
  set_offsets_.reserve(sets + 1);
  members_.reserve(entries);
}

void RrCollection::TruncateTo(size_t n) {
  if (n >= size()) return;
  set_offsets_.resize(n + 1);
  members_.resize(set_offsets_.back());
  ResetInvertedIndex();
}

void RrCollection::ReplaceSets(std::span<const uint32_t> set_ids,
                               std::span<const NodeId> members,
                               std::span<const uint32_t> sizes) {
  IMBENCH_CHECK(set_ids.size() == sizes.size());
  if (set_ids.empty()) return;
  for (const NodeId v : members) IMBENCH_CHECK(v < num_nodes_);
  const size_t num_sets = size();
  for (size_t i = 0; i < set_ids.size(); ++i) {
    IMBENCH_CHECK(set_ids[i] < num_sets);
    IMBENCH_CHECK(i == 0 || set_ids[i - 1] < set_ids[i]);
  }
  // Prefix-sum the replacement batch so set_ids[i]'s new members are
  // members[rep_offsets[i] .. rep_offsets[i + 1]).
  std::vector<uint64_t> rep_offsets(sizes.size() + 1, 0);
  for (size_t i = 0; i < sizes.size(); ++i) {
    rep_offsets[i + 1] = rep_offsets[i] + sizes[i];
  }
  IMBENCH_CHECK(rep_offsets.back() == members.size());

  // One forward compaction pass: kept sets are block-copied from the old
  // arena, replaced sets from the batch. Sizes differ in general, so the
  // pass rebuilds both arenas rather than shifting in place.
  std::vector<NodeId> new_members;
  new_members.reserve(members_.size() - (set_offsets_[set_ids.back() + 1] -
                                         set_offsets_[set_ids.front()]) +
                      members.size());
  std::vector<uint64_t> new_offsets;
  new_offsets.reserve(set_offsets_.size());
  new_offsets.push_back(0);
  size_t next_replace = 0;
  for (size_t id = 0; id < num_sets; ++id) {
    if (next_replace < set_ids.size() && set_ids[next_replace] == id) {
      new_members.insert(
          new_members.end(), members.begin() + rep_offsets[next_replace],
          members.begin() + rep_offsets[next_replace + 1]);
      ++next_replace;
    } else {
      new_members.insert(new_members.end(),
                         members_.begin() + set_offsets_[id],
                         members_.begin() + set_offsets_[id + 1]);
    }
    new_offsets.push_back(new_members.size());
  }
  members_ = std::move(new_members);
  set_offsets_ = std::move(new_offsets);
  ResetInvertedIndex();
}

std::vector<uint32_t> RrCollection::SetsContainingAny(
    std::span<const NodeId> nodes) const {
  EnsureInvertedIndex();
  std::vector<uint32_t> ids;
  for (const NodeId v : nodes) {
    IMBENCH_CHECK(v < num_nodes_);
    ids.insert(ids.end(), inv_sets_.begin() + inv_offsets_[v],
               inv_sets_.begin() + inv_offsets_[v + 1]);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

uint64_t RrCollection::MemoryBytes() const {
  return members_.capacity() * sizeof(NodeId) +
         set_offsets_.capacity() * sizeof(uint64_t) +
         inv_offsets_.capacity() * sizeof(uint64_t) +
         inv_sets_.capacity() * sizeof(uint32_t) + sizeof(*this);
}

void RrCollection::ResetInvertedIndex() {
  indexed_sets_ = 0;
  inv_offsets_.clear();
}

void RrCollection::EnsureInvertedIndex() const {
  const size_t num_sets = size();
  // Extends the index over the sets appended since the last call. Every
  // tail set id exceeds every indexed one, so appending each node's tail
  // ids after its old slice keeps the slices ascending — the order
  // GreedyMaxCover's coverage walk (and therefore the determinism goldens)
  // relies on. An extension from 0 is the full counting-sort build.
  if (inv_offsets_.empty()) {
    inv_offsets_.assign(num_nodes_ + 1, 0);
  } else if (indexed_sets_ == num_sets) {
    return;
  }
  const uint64_t tail_begin = set_offsets_[indexed_sets_];
  // Exact growth: reserve() to the entry count, so the index holds no idle
  // slack (resize() alone may double the capacity). The old contents are
  // carried over in place; no second index copy is built.
  inv_sets_.reserve(members_.size());
  inv_sets_.resize(members_.size());
  // shift[v]: tail entries of nodes below v, i.e. how far v's old slice
  // moves up. Counted over the tail only, then prefix-summed in place.
  std::vector<uint64_t> shift(num_nodes_, 0);
  for (uint64_t i = tail_begin; i < members_.size(); ++i) {
    ++shift[members_[i]];
  }
  uint64_t tail_entries = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const uint64_t count = shift[v];
    shift[v] = tail_entries;
    tail_entries += count;
  }
  // Move each old slice up by its shift, highest node first: slice v lands
  // at or above where it was, over space the higher slices already left,
  // so nothing unmoved is overwritten. shift[v] becomes v's scatter
  // cursor, the end of its moved slice.
  uint64_t shift_above = tail_entries;  // shift of node v + 1
  for (NodeId v = num_nodes_; v-- > 0;) {
    const uint64_t begin = inv_offsets_[v];
    const uint64_t end = inv_offsets_[v + 1];
    const uint64_t moved = shift[v];
    if (moved != 0 && end != begin) {
      std::memmove(inv_sets_.data() + begin + moved, inv_sets_.data() + begin,
                   (end - begin) * sizeof(uint32_t));
    }
    inv_offsets_[v + 1] = end + shift_above;
    shift[v] = end + moved;
    shift_above = moved;
  }
  for (size_t id = indexed_sets_; id < num_sets; ++id) {
    const uint64_t end = set_offsets_[id + 1];
    for (uint64_t i = set_offsets_[id]; i < end; ++i) {
      inv_sets_[shift[members_[i]]++] = static_cast<uint32_t>(id);
    }
  }
  indexed_sets_ = num_sets;
}

std::vector<NodeId> RrCollection::GreedyMaxCover(
    uint32_t k, double* covered_fraction) const {
  return GreedyMaxCoverPrefix(k, size(), covered_fraction);
}

std::vector<NodeId> RrCollection::GreedyMaxCoverPrefix(
    uint32_t k, size_t limit, double* covered_fraction) const {
  limit = std::min(limit, size());
  EnsureInvertedIndex();
  // Dispatch on the number of sets actually covered: a warm corpus grown
  // far past this query's θ should not push a small query onto the
  // large-corpus path.
  return limit >= kDegreeBucketThreshold
             ? CoverDegreeBuckets(k, limit, covered_fraction)
             : CoverLazyHeap(k, limit, covered_fraction);
}

namespace {

// Shared tail of both cover variants: when every set is covered before k
// picks, fill the remaining slots with unchosen nodes so the result always
// has k seeds (matches the reference implementations).
void PadSeeds(NodeId num_nodes, uint32_t k, std::vector<uint8_t>& chosen,
              std::vector<NodeId>& seeds) {
  for (NodeId v = 0; v < num_nodes && seeds.size() < k; ++v) {
    if (!chosen[v]) {
      chosen[v] = 1;
      seeds.push_back(v);
    }
  }
}

}  // namespace

uint32_t RrCollection::PrefixDegree(NodeId v, size_t limit) const {
  // Each node's inverted-index slice lists set ids in increasing order, so
  // the ids below `limit` form a prefix of the slice. An empty prefix must
  // short-circuit: `limit - 1` would wrap to UINT32_MAX and report the
  // whole-corpus degree, making a limit-0 cover pick by corpus degree
  // instead of degrading to the PadSeeds order.
  if (limit == 0) return 0;
  const auto begin = inv_sets_.begin() + inv_offsets_[v];
  const auto end = inv_sets_.begin() + inv_offsets_[v + 1];
  if (limit >= size()) return static_cast<uint32_t>(end - begin);
  return static_cast<uint32_t>(
      std::upper_bound(begin, end, static_cast<uint32_t>(limit - 1)) - begin);
}

std::vector<NodeId> RrCollection::CoverLazyHeap(
    uint32_t k, size_t limit, double* covered_fraction) const {
  // Counting greedy with lazy decrement: degree[v] = #uncovered sets among
  // the first `limit` that contain v, read off the inverted-index slice
  // prefix. Every inner loop below walks a contiguous span of one of the
  // two arenas.
  std::vector<uint32_t> degree(num_nodes_, 0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    degree[v] = PrefixDegree(v, limit);
  }
  std::vector<uint8_t> covered(limit, 0);
  std::vector<uint8_t> chosen(num_nodes_, 0);

  // Lazy priority queue of (stale degree, node); ties resolve to the
  // largest node id (the pair comparison), which the bucket variant
  // reproduces exactly.
  std::vector<std::pair<uint32_t, NodeId>> heap;
  heap.reserve(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (degree[v] > 0) heap.emplace_back(degree[v], v);
  }
  std::make_heap(heap.begin(), heap.end());

  std::vector<NodeId> seeds;
  seeds.reserve(k);
  uint64_t covered_count = 0;
  while (seeds.size() < k) {
    NodeId best = kInvalidNode;
    while (!heap.empty()) {
      auto [stale_degree, v] = heap.front();
      std::pop_heap(heap.begin(), heap.end());
      heap.pop_back();
      if (chosen[v]) continue;
      if (stale_degree != degree[v]) {
        // Entry went stale; reinsert with the true degree.
        if (degree[v] > 0) {
          heap.emplace_back(degree[v], v);
          std::push_heap(heap.begin(), heap.end());
        }
        continue;
      }
      best = v;
      break;
    }
    if (best == kInvalidNode) {
      PadSeeds(num_nodes_, k, chosen, seeds);
      break;
    }
    chosen[best] = 1;
    seeds.push_back(best);
    for (uint64_t j = inv_offsets_[best]; j < inv_offsets_[best + 1]; ++j) {
      const uint32_t set_id = inv_sets_[j];
      if (set_id >= limit) break;  // slice is ascending; rest is past limit
      if (covered[set_id]) continue;
      covered[set_id] = 1;
      ++covered_count;
      const uint64_t end = set_offsets_[set_id + 1];
      for (uint64_t i = set_offsets_[set_id]; i < end; ++i) {
        --degree[members_[i]];
      }
    }
  }
  if (covered_fraction != nullptr) {
    *covered_fraction = limit == 0 ? 0.0
                                   : static_cast<double>(covered_count) /
                                         static_cast<double>(limit);
  }
  return seeds;
}

std::vector<NodeId> RrCollection::CoverDegreeBuckets(
    uint32_t k, size_t limit, double* covered_fraction) const {
  // Exact greedy over lazily-maintained degree buckets: bucket[d] holds
  // candidate nodes last seen at degree d. Degrees only decrease, so a
  // cursor sweeps from the top bucket downward and never backs up; a node
  // found below its bucket is moved down (each node moves monotonically,
  // so total moves are bounded by total degree decrements). Selection
  // takes the largest node id in the highest non-empty bucket — the exact
  // tie-break the lazy heap's pair ordering yields.
  std::vector<uint32_t> degree(num_nodes_, 0);
  uint32_t max_degree = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    degree[v] = PrefixDegree(v, limit);
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::vector<NodeId>> buckets(max_degree + 1);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (degree[v] > 0) buckets[degree[v]].push_back(v);
  }
  std::vector<uint8_t> covered(limit, 0);
  std::vector<uint8_t> chosen(num_nodes_, 0);

  std::vector<NodeId> seeds;
  seeds.reserve(k);
  uint64_t covered_count = 0;
  uint32_t cur = max_degree;
  while (seeds.size() < k) {
    NodeId best = kInvalidNode;
    while (cur > 0) {
      std::vector<NodeId>& bucket = buckets[cur];
      // Compact the bucket in place: drop chosen nodes, sink nodes whose
      // degree decayed, and track the max id among the survivors.
      size_t keep = 0;
      for (const NodeId v : bucket) {
        if (chosen[v]) continue;
        const uint32_t d = degree[v];
        if (d == cur) {
          bucket[keep++] = v;
          if (best == kInvalidNode || v > best) best = v;
        } else if (d > 0) {
          buckets[d].push_back(v);
        }
      }
      bucket.resize(keep);
      if (best != kInvalidNode) break;
      --cur;
    }
    if (best == kInvalidNode) {
      PadSeeds(num_nodes_, k, chosen, seeds);
      break;
    }
    chosen[best] = 1;
    seeds.push_back(best);
    for (uint64_t j = inv_offsets_[best]; j < inv_offsets_[best + 1]; ++j) {
      const uint32_t set_id = inv_sets_[j];
      if (set_id >= limit) break;  // slice is ascending; rest is past limit
      if (covered[set_id]) continue;
      covered[set_id] = 1;
      ++covered_count;
      const uint64_t end = set_offsets_[set_id + 1];
      for (uint64_t i = set_offsets_[set_id]; i < end; ++i) {
        --degree[members_[i]];
      }
    }
  }
  if (covered_fraction != nullptr) {
    *covered_fraction = limit == 0 ? 0.0
                                   : static_cast<double>(covered_count) /
                                         static_cast<double>(limit);
  }
  return seeds;
}

}  // namespace imbench
