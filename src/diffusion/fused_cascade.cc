#include "diffusion/fused_cascade.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace imbench {
namespace {

constexpr uint32_t kFixedOne = 1u << kCoinBits;

// Weller-style multiplier for decorrelating block indices before SplitMix64.
constexpr uint64_t kBlockMix = 0xd1342543de82ef95ULL;

uint32_t FixedPointProb(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return kFixedOne;
  const long fix = std::lround(p * static_cast<double>(kFixedOne));
  if (fix <= 0) return 0;
  if (fix >= static_cast<long>(kFixedOne)) return kFixedOne;
  return static_cast<uint32_t>(fix);
}

// Coin-mask stream for one (block_seed, node) pair: a counter-based
// SplitMix64 sequence rather than a stateful xoshiro. Mask building is
// the hottest loop in the fused kernels and consumes ~8 draws back to
// back; SplitMix64's state advance is a single add, so consecutive draws
// carry no serial dependency through the mixer and pipeline fully —
// xoshiro's state recurrence chains them. Seeded by mixing the same
// (block_seed, node) preimage Rng::ForStream uses, so two nodes' counter
// ranges start at independent 64-bit points (a raw `seed ^ gamma*node`
// start would put adjacent nodes one constant apart and risk overlapping
// streams).
class CoinStream {
 public:
  CoinStream(uint64_t block_seed, uint64_t node) {
    uint64_t sm = block_seed ^ (0x9e3779b97f4a7c15ULL * (node + 1));
    state_ = SplitMix64(sm);
  }
  uint64_t Next() { return SplitMix64(state_); }

 private:
  uint64_t state_;
};

// A 64-bit word whose every bit is independently set with probability
// p_fix / 2^kCoinBits. Lane j succeeds iff an implicit uniform
// kCoinBits-bit value X_j < p_fix; X bits are consumed MSB-first, one
// 64-lane draw word per digit, and a lane is decided at the first digit
// where its X bit differs from p's (0 < 1: success; 1 > 0: failure).
// Undecided lanes halve per digit, so the expected draw count is about
// log2(64) + 2 regardless of p's digit pattern — the worst case is still
// kCoinBits draws, but a dense pattern like WC's 0.2 no longer pays all
// 16. Lanes undecided after every digit have X == p_fix's prefix, i.e.
// X >= p_fix: failure. Draws nothing for the exact probabilities 0 and 1,
// so skipped edges never perturb the stream.
uint64_t CoinMask(uint32_t p_fix, CoinStream& stream) {
  if (p_fix == 0) return 0;
  if (p_fix >= kFixedOne) return ~0ULL;
  uint64_t mask = 0;
  uint64_t undecided = ~0ULL;
  for (int digit = kCoinBits - 1; digit >= 0; --digit) {
    const uint64_t draw = stream.Next();
    if (((p_fix >> digit) & 1) != 0) {
      mask |= undecided & ~draw;
      undecided &= draw;
    } else {
      undecided &= ~draw;
    }
    if (undecided == 0) break;
  }
  return mask;
}

std::vector<uint32_t> FixedPointProbs(std::span<const double> weights) {
  std::vector<uint32_t> fixed(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    fixed[i] = FixedPointProb(weights[i]);
  }
  return fixed;
}

uint64_t LaneMask(uint32_t lanes) {
  return lanes >= 64 ? ~0ULL : (uint64_t{1} << lanes) - 1;
}

}  // namespace

FusedCascadeContext::FusedCascadeContext(const GraphView& graph)
    : graph_(graph),
      active_word_(graph.num_nodes(), 0),
      pending_word_(graph.num_nodes(), 0) {}

uint64_t FusedCascadeContext::BlockSeed(uint64_t seed, uint64_t block) {
  uint64_t sm = seed ^ (kBlockMix * (block + 1));
  return SplitMix64(sm);
}

uint64_t FusedCascadeContext::RunBlock(DiffusionKind kind,
                                       std::span<const NodeId> seeds,
                                       uint64_t seed, uint64_t block,
                                       uint32_t lanes, NodeId* gamma) {
  ++epoch_;
  queue_.clear();
  touched_.clear();
  lt_slots_used_ = 0;
  const uint64_t block_seed = BlockSeed(seed, block);
  const uint64_t lane_mask = LaneMask(lanes);
  PrepareScratch(kind);
  if (kind == DiffusionKind::kIndependentCascade) {
    RunBlockIc(seeds, block_seed, lane_mask);
  } else {
    RunBlockLt(seeds, block_seed, lane_mask);
  }
  // The popcount sweep doubles as the O(touched) cleanup that restores the
  // all-zero word invariant the next block relies on: a nonzero
  // active_word_ IS the "touched this block" marker (no epoch stamps on
  // the hot path), which is sound because every pending bit is drained
  // before RunBlock returns.
  for (uint32_t j = 0; j < lanes; ++j) gamma[j] = 0;
  for (const NodeId v : touched_) {
    uint64_t word = active_word_[v];
    active_word_[v] = 0;
    while (word != 0) {
      ++gamma[std::countr_zero(word)];
      word &= word - 1;
    }
  }
  return std::exchange(out_scratch_.blocks_decoded, 0) +
         std::exchange(in_scratch_.blocks_decoded, 0);
}

void FusedCascadeContext::Activate(NodeId v, uint64_t bits) {
  if (active_word_[v] == 0) touched_.push_back(v);
  active_word_[v] |= bits;
  if (pending_word_[v] == 0) queue_.push_back(v);
  pending_word_[v] |= bits;
}

void FusedCascadeContext::RunBlockIc(std::span<const NodeId> seeds,
                                     uint64_t block_seed, uint64_t lane_mask) {
  for (const NodeId s : seeds) {
    if (active_word_[s] == 0) Activate(s, lane_mask);
  }
  for (size_t head = 0; head < queue_.size(); ++head) {
    const NodeId u = queue_[head];
    const uint64_t frontier = pending_word_[u];
    pending_word_[u] = 0;
    const std::span<const NodeId> targets = graph_.OutTargets(u, out_scratch_);
    if (targets.empty()) continue;
    const size_t base = static_cast<size_t>(graph_.OutEdgeBase(u));
    if (mask_stamp_[u] != epoch_) {
      mask_stamp_[u] = epoch_;
      CoinStream stream(block_seed, u);
      for (size_t i = 0; i < targets.size(); ++i) {
        edge_mask_[base + i] = CoinMask(p_fix_[base + i], stream);
      }
    }
    for (size_t i = 0; i < targets.size(); ++i) {
      uint64_t add = frontier & edge_mask_[base + i];
      if (add == 0) continue;
      const NodeId v = targets[i];
      add &= ~active_word_[v];  // untouched nodes hold 0: AND-NOT is free
      if (add == 0) continue;
      Activate(v, add);
    }
  }
}

const double* FusedCascadeContext::LtThresholds(NodeId v,
                                                uint64_t block_seed) {
  if (lt_stamp_[v] != epoch_) {
    lt_stamp_[v] = epoch_;
    lt_slot_[v] = lt_slots_used_++;
    if (lt_thresh_.size() < static_cast<size_t>(lt_slots_used_) * 64) {
      lt_thresh_.resize(static_cast<size_t>(lt_slots_used_) * 64);
    }
    double* thresholds = &lt_thresh_[static_cast<size_t>(lt_slot_[v]) * 64];
    Rng rng = Rng::ForStream(block_seed, v);
    for (int j = 0; j < 64; ++j) thresholds[j] = rng.NextDouble();
  }
  return &lt_thresh_[static_cast<size_t>(lt_slot_[v]) * 64];
}

void FusedCascadeContext::RunBlockLt(std::span<const NodeId> seeds,
                                     uint64_t block_seed, uint64_t lane_mask) {
  for (const NodeId s : seeds) {
    if (active_word_[s] == 0) Activate(s, lane_mask);
  }
  double sum[kFusedLanes];
  size_t level_begin = 0;
  while (level_begin < queue_.size()) {
    // Push: fold the level's frontiers into one contact word per
    // out-neighbor, listing each newly contacted node once. Nothing
    // activates during the push, so `~active_word_[v]` is stable here.
    const size_t level_end = queue_.size();
    for (size_t head = level_begin; head < level_end; ++head) {
      const NodeId u = queue_[head];
      const uint64_t frontier = pending_word_[u];
      pending_word_[u] = 0;
      for (const NodeId v : graph_.OutTargets(u, out_scratch_)) {
        const uint64_t contact = frontier & ~active_word_[v];
        if (contact == 0) continue;
        if (contact_word_[v] == 0) contacted_.push_back(v);
        contact_word_[v] |= contact;
      }
    }
    level_begin = level_end;
    // Pull: one in-edge sweep per contacted node serves all its contacted
    // lanes. Each lane's sum still adds its active in-weights in in-edge
    // order, so it equals the replay's per-contact recompute bit for bit.
    // Activations land in the next level (and are visible to later pulls
    // of this one, which is harmless: see the header).
    for (const NodeId v : contacted_) {
      const uint64_t contact = contact_word_[v];
      contact_word_[v] = 0;
      const double* thresholds = LtThresholds(v, block_seed);
      const auto [sources, in_weights] = graph_.In(v, in_scratch_);
      for (uint64_t rest = contact; rest != 0; rest &= rest - 1) {
        sum[std::countr_zero(rest)] = 0;
      }
      for (size_t e = 0; e < sources.size(); ++e) {
        for (uint64_t bits = active_word_[sources[e]] & contact; bits != 0;
             bits &= bits - 1) {
          sum[std::countr_zero(bits)] += in_weights[e];
        }
      }
      uint64_t newly = 0;
      for (uint64_t rest = contact; rest != 0; rest &= rest - 1) {
        const int j = std::countr_zero(rest);
        if (sum[j] >= thresholds[j]) newly |= uint64_t{1} << j;
      }
      if (newly != 0) Activate(v, newly);
    }
    contacted_.clear();
  }
}

// Per-kind scratch is allocated on the kind's first block: an LT context
// never holds IC's per-edge mask lanes (12 B per edge), nor an IC context
// LT's per-node stamps and contact words. Kept out of the kernels so that
// inlining it cannot perturb their hot loops' code generation.
void FusedCascadeContext::PrepareScratch(DiffusionKind kind) {
  const size_t n = graph_.num_nodes();
  if (kind == DiffusionKind::kIndependentCascade) {
    if (mask_stamp_.size() == n) return;
    p_fix_ = FixedPointProbs(graph_.weights());
    mask_stamp_.assign(n, 0);
    edge_mask_.assign(graph_.num_edges(), 0);
  } else {
    if (lt_stamp_.size() == n) return;
    lt_stamp_.assign(n, 0);
    lt_slot_.assign(n, 0);
    contact_word_.assign(n, 0);
  }
}

NodeId FusedScalarReplay(const GraphView& graph, DiffusionKind kind,
                         std::span<const NodeId> seeds, uint64_t seed,
                         uint64_t index) {
  const uint64_t block_seed =
      FusedCascadeContext::BlockSeed(seed, index / kFusedLanes);
  const int lane = static_cast<int>(index % kFusedLanes);
  std::vector<uint8_t> active(graph.num_nodes(), 0);
  std::vector<NodeId> queue;
  AdjScratch out_scratch;
  AdjScratch in_scratch;
  for (const NodeId s : seeds) {
    if (active[s] == 0) {
      active[s] = 1;
      queue.push_back(s);
    }
  }
  NodeId count = static_cast<NodeId>(queue.size());
  if (kind == DiffusionKind::kIndependentCascade) {
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const auto [targets, weights] = graph.Out(u, out_scratch);
      if (targets.empty()) continue;
      CoinStream stream(block_seed, u);
      for (size_t i = 0; i < targets.size(); ++i) {
        const uint64_t mask = CoinMask(FixedPointProb(weights[i]), stream);
        const NodeId v = targets[i];
        if (((mask >> lane) & 1) != 0 && active[v] == 0) {
          active[v] = 1;
          queue.push_back(v);
          ++count;
        }
      }
    }
  } else {
    std::vector<double> threshold(graph.num_nodes(), 0);
    std::vector<uint8_t> threshold_done(graph.num_nodes(), 0);
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : graph.OutTargets(u, out_scratch)) {
        if (active[v] != 0) continue;
        if (threshold_done[v] == 0) {
          threshold_done[v] = 1;
          Rng rng = Rng::ForStream(block_seed, v);
          double draw = 0;
          for (int j = 0; j <= lane; ++j) draw = rng.NextDouble();
          threshold[v] = draw;
        }
        const auto [sources, in_weights] = graph.In(v, in_scratch);
        double sum = 0;
        for (size_t e = 0; e < sources.size(); ++e) {
          if (active[sources[e]] != 0) sum += in_weights[e];
        }
        if (sum >= threshold[v]) {
          active[v] = 1;
          queue.push_back(v);
          ++count;
        }
      }
    }
  }
  return count;
}

}  // namespace imbench
