#include "diffusion/rr_sets.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "framework/fault.h"
#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// Consecutive set indices in one batch of a many-lane wave. Large enough
// to amortize scheduling, small enough that a tripped run wastes at most a
// wave of discarded sets.
constexpr uint64_t kBatchSets = 64;

// A one-lane batch is merged once it holds this many members: the buffer
// stays a few pages however large single sets get (supercritical IC), so
// it adds nothing measurable to peak heap, and one ring restart per flush
// costs nothing measurable.
constexpr uint64_t kFlushEntries = uint64_t{1} << 12;

// Stage-2 distance: a pending set's adjacency is prefetched this many sets
// before it is sampled, half a ring after its offsets were.
constexpr uint32_t kStage2Distance = RrSampler::kLookahead / 2;

SamplerOptions OneLane(DiffusionKind kind, RunGuard* guard) {
  SamplerOptions options;
  options.kind = kind;
  options.guard = guard;
  return options;
}

}  // namespace

RrSampler::RrSampler(const GraphView& graph, DiffusionKind kind,
                     RunGuard* guard)
    : RrSampler(graph, OneLane(kind, guard)) {}

RrSampler::RrSampler(const GraphView& graph, const SamplerOptions& options)
    : graph_(graph),
      kind_(options.kind),
      guard_(options.guard),
      trace_(options.trace),
      max_total_entries_(options.max_total_entries) {
  uint32_t lanes = EffectiveThreads(options.threads);
  if (lanes > 1) {
    pool_ = options.pool != nullptr ? options.pool : &ThreadPool::Shared();
    if (pool_->worker_count() == 0) {
      pool_ = nullptr;
      lanes = 1;
    }
  }
  lanes_.reserve(lanes);
  for (uint32_t lane = 0; lane < lanes; ++lane) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

RrSampler::~RrSampler() = default;

uint64_t RrSampler::GenerateFromRoot(NodeId root, Rng& rng,
                                     std::vector<NodeId>& out) {
  out.clear();
  Lane& lane = *lanes_[0];
  lane.guard = guard_;
  lane.wave = nullptr;
  return graph_.Visit(
      [&](const auto& graph) { return Sample(graph, lane, root, rng, out); });
}

uint64_t RrSampler::GenerateStream(uint64_t seed, uint64_t index,
                                   std::vector<NodeId>& out) {
  Rng rng = Rng::ForStream(seed, index);
  return GenerateFromRoot(rng.NextU32(graph_.num_nodes()), rng, out);
}

void RrSampler::Produce(Lane& lane, uint64_t seed, uint64_t first,
                        uint64_t count, uint64_t flush_entries,
                        Batch& batch) {
  graph_.Visit([&](const auto& graph) {
    ProduceOn(graph, lane, seed, first, count, flush_entries, batch);
  });
}

template <typename Backend>
void RrSampler::ProduceOn(const Backend& graph, Lane& lane, uint64_t seed,
                          uint64_t first, uint64_t count,
                          uint64_t flush_entries, Batch& batch) {
  // Slot i % kLookahead of the ring holds set i's generator and root,
  // drawn kLookahead sets early. Both are pure functions of
  // (seed, first + i), so drawing them early changes no set.
  const NodeId n = graph.num_nodes();
  uint64_t drawn = 0;
  auto draw_next = [&] {
    Pending& p = lane.ring[drawn % kLookahead];
    p.rng = Rng::ForStream(seed, first + drawn);
    p.root = p.rng.NextU32(n);
    graph.PrefetchInOffsets(p.root);  // stage 1
    ++drawn;
  };
  while (drawn < std::min<uint64_t>(count, kLookahead)) draw_next();
  // The first sets get their stage 2 at once: their offsets are already
  // in flight together, and a short range (a 64-set batch) would otherwise
  // sample them unprefetched.
  for (uint64_t i = 0; i < std::min<uint64_t>(drawn, kStage2Distance); ++i) {
    graph.PrefetchInAdjacency(lane.ring[i].root);
  }

  ParallelGuardState& wave = *lane.wave;
  batch.complete = false;
  for (uint64_t i = 0; i < count; ++i) {
    if (i + kStage2Distance < drawn) {
      graph.PrefetchInAdjacency(
          lane.ring[(i + kStage2Distance) % kLookahead].root);
    }
    if (wave.aborted()) return;
    if (lane.guard_copy.ShouldStop()) {
      wave.Trip(lane.guard_copy.reason());
      return;
    }
    // Fault site: the lane dies before drawing its next set.
    StopReason injected = StopReason::kNone;
    if (FaultFire(faultsite::kSamplerLane, &injected)) {
      wave.Trip(injected);
      return;
    }
    Pending& p = lane.ring[i % kLookahead];
    const size_t base = batch.members.size();
    lane.scratch.blocks_decoded = 0;
    const uint64_t width = Sample(graph, lane, p.root, p.rng, batch.members);
    // A stop mid-set leaves a truncated set; drop it so the batch stays a
    // prefix of the deterministic sequence.
    if (lane.guard_copy.stopped()) {
      batch.members.resize(base);
      wave.Trip(lane.guard_copy.reason());
      return;
    }
    if (wave.aborted()) {
      batch.members.resize(base);
      return;
    }
    batch.sizes.push_back(static_cast<uint32_t>(batch.members.size() - base));
    batch.widths.push_back(width);
    batch.blocks.push_back(lane.scratch.blocks_decoded);
    if (drawn < count) draw_next();  // refills the slot just consumed
    if (batch.members.size() >= flush_entries) break;
  }
  batch.complete = true;
}

RrBatchResult RrSampler::Generate(uint64_t seed, uint64_t count,
                                  RrCollection& out,
                                  std::vector<uint64_t>* widths) {
  RrBatchResult result;
  ParallelGuardState wave(guard_);
  for (auto& lane : lanes_) {
    // Each call starts from the caller's current budget state.
    lane->guard_copy = wave.MakeLaneGuard();
    lane->guard = &lane->guard_copy;
    lane->wave = &wave;
  }
  const uint64_t lanes = lanes_.size();
  // Per-set counters of merged sets only, summed in index order, so the
  // totals are the same for every lane count.
  uint64_t edges_examined = 0;
  uint64_t blocks_decoded = 0;
  bool draining = false;
  while (result.generated < count && !draining) {
    // The wave's shape is the only thing the lane count changes. One lane
    // runs one batch to the remaining count, cut by the flush bound, so
    // its lookahead ring never restarts mid-stream. Several lanes share
    // 4 batches each through the pool's dynamic cursor: enough to balance
    // uneven set sizes, few enough that unmerged sets stay bounded.
    const uint64_t remaining = count - result.generated;
    const uint64_t wave_sets =
        lanes == 1 ? remaining : std::min(remaining, lanes * 4 * kBatchSets);
    const uint64_t batch_sets = lanes == 1 ? wave_sets : kBatchSets;
    const uint64_t flush_entries = lanes == 1
                                       ? kFlushEntries
                                       : std::numeric_limits<uint64_t>::max();
    const uint64_t num_batches = (wave_sets + batch_sets - 1) / batch_sets;
    const uint64_t wave_base = next_index_;
    const uint64_t wave_end = wave_base + wave_sets;
    if (batches_.size() < num_batches) batches_.resize(num_batches);
    auto produce = [&](uint64_t b, uint32_t lane) {
      Batch& batch = batches_[b];
      batch.members.clear();
      batch.sizes.clear();
      batch.widths.clear();
      batch.blocks.clear();
      const uint64_t first = wave_base + b * batch_sets;
      Produce(*lanes_[lane], seed, first,
              std::min(batch_sets, wave_end - first), flush_entries, batch);
    };
    if (lanes == 1) {
      produce(0, 0);
    } else {
      pool_->ParallelFor(num_batches, static_cast<uint32_t>(lanes), produce);
    }

    // Merge in index order. The merge is single-threaded, so the set at
    // which a fault fires or the entry cap is crossed is the same for
    // every lane count. Each batch's kept prefix lands as one splice.
    for (uint64_t b = 0; b < num_batches && !draining; ++b) {
      const Batch& batch = batches_[b];
      size_t keep = 0;
      uint64_t keep_entries = 0;
      while (keep < batch.size()) {
        // Fault site: the arena append of this set fails (simulated OOM).
        // Nothing from it is appended and the stream cursor stays put, so
        // a retry resumes at exactly this set.
        StopReason injected = StopReason::kNone;
        if (FaultFire(faultsite::kRrArenaGrow, &injected)) {
          result.stop = injected;
          if (!IsTransientStop(injected) && guard_ != nullptr) {
            guard_->Trip(injected);
          }
          break;
        }
        keep_entries += batch.sizes[keep++];
        // The entry cap, add-then-check: the crossing set is kept. It is
        // the sampler's own safety valve, so it leaves the caller's
        // run-wide guard alone and the evaluation of the partial seed set
        // still runs.
        if (max_total_entries_ != 0 &&
            out.TotalEntries() + keep_entries > max_total_entries_) {
          result.stop = StopReason::kMemory;
          break;
        }
      }
      out.AppendBatch(
          std::span<const NodeId>(batch.members.data(), keep_entries),
          std::span<const uint32_t>(batch.sizes.data(), keep));
      for (size_t i = 0; i < keep; ++i) {
        if (widths != nullptr) widths->push_back(batch.widths[i]);
        edges_examined += batch.widths[i];
        blocks_decoded += batch.blocks[i];
      }
      next_index_ += keep;
      result.generated += keep;
      draining = result.stop != StopReason::kNone || !batch.complete;
    }
  }
  for (auto& lane : lanes_) lane->wave = nullptr;
  // A lane's trip reaches the caller's guard unless it is transient, so a
  // retry can resume from the same stream index.
  wave.Propagate();
  if (result.stop == StopReason::kNone) result.stop = wave.reason();
  if (result.stop == StopReason::kNone && GuardStopped(guard_)) {
    result.stop = guard_->reason();
  }
  TraceAdd(trace_, TraceCounter::kRrEdgesExamined, edges_examined);
  TraceAdd(trace_, TraceCounter::kNeighborBlocksDecoded, blocks_decoded);
  return result;
}

template <typename Backend>
uint64_t RrSampler::Sample(const Backend& graph, Lane& lane, NodeId root,
                           Rng& rng, std::vector<NodeId>& out) {
  if (lane.visited_stamp.empty()) {
    lane.visited_stamp.assign(graph_.num_nodes(), 0);
  }
  ++lane.epoch;
  return kind_ == DiffusionKind::kIndependentCascade
             ? SampleIc(graph, lane, root, rng, out)
             : SampleLt(graph, lane, root, rng, out);
}

template <typename Backend>
uint64_t RrSampler::SampleIc(const Backend& graph, Lane& lane, NodeId root,
                             Rng& rng, std::vector<NodeId>& out) {
  uint64_t edges_examined = 0;
  const uint32_t epoch = lane.epoch;
  uint32_t* const visited = lane.visited_stamp.data();
  visited[root] = epoch;
  out.push_back(root);
  for (size_t head = out.size() - 1; head < out.size(); ++head) {
    if (lane.PollStop()) break;  // truncated set: run is draining
    const NodeId v = out[head];
    // The same two stages inside the set: a member's offsets are
    // prefetched when it is queued, its adjacency one expansion before
    // its own.
    if (head + 1 < out.size()) graph.PrefetchInAdjacency(out[head + 1]);
    const auto [sources, weights] = InAdjacency(graph, v, lane.scratch);
    edges_examined += sources.size();
    for (size_t i = 0; i < sources.size(); ++i) {
      const NodeId u = sources[i];
      if (visited[u] == epoch) continue;
      if (rng.NextDouble() < weights[i]) {
        visited[u] = epoch;
        graph.PrefetchInOffsets(u);
        out.push_back(u);
      }
    }
  }
  return edges_examined;
}

template <typename Backend>
uint64_t RrSampler::SampleLt(const Backend& graph, Lane& lane, NodeId root,
                             Rng& rng, std::vector<NodeId>& out) {
  // Under LT's live-edge view each node activates via at most one
  // in-neighbor, so the RR set is a simple path walked backwards until the
  // residual no-edge event fires or the walk bites its own tail.
  uint64_t edges_examined = 0;
  const uint32_t epoch = lane.epoch;
  uint32_t* const visited = lane.visited_stamp.data();
  visited[root] = epoch;
  out.push_back(root);
  NodeId v = root;
  while (!lane.PollStop()) {
    const auto [sources, weights] = InAdjacency(graph, v, lane.scratch);
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
    if (next == kInvalidNode) break;      // residual: no live in-edge
    if (visited[next] == epoch) break;    // cycle
    visited[next] = epoch;
    out.push_back(next);
    v = next;
  }
  return edges_examined;
}

std::unique_ptr<RrSampler> MakeRrEngine(const GraphView& graph,
                                        const SamplerOptions& options) {
  return std::make_unique<RrSampler>(graph, options);
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

uint32_t RrCollection::PrefixDegree(NodeId v, size_t limit) const {
  // Each node's inverted-index slice lists set ids in increasing order, so
  // the ids below `limit` form a prefix of the slice. An empty prefix must
  // short-circuit: `limit - 1` would wrap to UINT32_MAX and report the
  // whole-corpus degree, making a limit-0 cover pick by corpus degree
  // instead of degrading to the pad order.
  if (limit == 0) return 0;
  const auto begin = inv_sets_.begin() + inv_offsets_[v];
  const auto end = inv_sets_.begin() + inv_offsets_[v + 1];
  if (limit >= size()) return static_cast<uint32_t>(end - begin);
  return static_cast<uint32_t>(
      std::upper_bound(begin, end, static_cast<uint32_t>(limit - 1)) - begin);
}

std::vector<NodeId> RrCollection::GreedyMaxCoverPrefix(
    uint32_t k, size_t limit, double* covered_fraction) const {
  limit = std::min(limit, size());
  EnsureInvertedIndex();
  // Exact greedy over lazily-maintained degree buckets: degree[v] counts
  // the uncovered sets among the first `limit` that contain v, and
  // bucket[d] holds candidate nodes last seen at degree d. Degrees only
  // decrease, so a cursor sweeps from the top bucket downward and never
  // backs up; a node found below its bucket is moved down (each node moves
  // monotonically, so total moves are bounded by total degree decrements).
  // Selection takes the largest node id in the highest non-empty bucket.
  // Every inner loop walks a contiguous span of one of the two arenas.
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
      // Every set is covered before k picks: fill the remaining slots with
      // the smallest unchosen ids, so the result always has k seeds
      // (matches the reference implementations).
      for (NodeId v = 0; v < num_nodes_ && seeds.size() < k; ++v) {
        if (!chosen[v]) {
          chosen[v] = 1;
          seeds.push_back(v);
        }
      }
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
