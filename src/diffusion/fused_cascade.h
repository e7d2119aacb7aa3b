// Bit-parallel fused Monte-Carlo diffusion kernels (Göktürk & Kaya,
// arXiv:2008.03095): 64 simulations run per pass with one uint64_t lane
// word per node, where bit j of a node's word means "active in simulation
// j". Frontier expansion becomes word operations over the out-CSR, and a
// popcount reduction at the end produces the per-simulation Γ(S) vector.
//
// Determinism contract. Simulations are grouped into 64-wide blocks; block
// b of a run keyed by `seed` derives a block seed, and every random draw
// inside the block comes from a per-node stream keyed by
// (block_seed, node) — a counter-based SplitMix64 stream for IC coin
// masks (draws pipeline with no serial state recurrence) and
// Rng::ForStream for LT thresholds:
//
//   * IC: node u's out-edge coin masks are drawn in out-edge order from
//     the coin stream of (block_seed, u). A mask's bit j is set with probability
//     W(u,v) (16-bit fixed point, see kCoinBits), built by an MSB-first
//     comparison ladder over the probability's binary digits with
//     early exit once every lane is decided. Masks are a function of
//     (seed, block, u) alone — not of traversal order — so any schedule
//     over blocks yields bit-identical results, and FusedScalarReplay can
//     re-derive any single simulation's cascade exactly.
//   * LT: node v's 64 thresholds are drawn from ForStream(block_seed, v)
//     on first contact. The block runs in push/pull levels. The push
//     drains the current level, ORs each frontier into a per-node contact
//     word and lists every newly contacted node once. The pull sweeps
//     each listed node's in-edges once for all its contacted lanes,
//     summing every lane's active in-weights in in-edge order, and
//     activates the lanes whose sum reaches the threshold into the next
//     level. Why this matches a per-contact recompute bit for bit: a
//     fixed-order sum of nonnegative terms only grows when a term is
//     added (FP rounding is monotone), so every schedule that re-checks a
//     node after each activation of an in-neighbor, and activates only on
//     a sum computed from already-active lanes, ends at the same least
//     fixed point. FusedScalarReplay's naive per-contact recompute in BFS
//     order is one such schedule, so Γ agrees lane for lane.
//
// The same trick runs reverse-reachable set sampling under IC
// (FusedRrContext): RR set i lives in lane i%64 of block i/64, its root is
// drawn exactly like the scalar sampler's (ForStream(seed, i)), and the
// per-in-edge liveness masks are keyed by (seed, block, target node) — so
// set i is a pure function of (seed, i), independent of how index ranges
// are partitioned across threads or top-up calls.
#ifndef IMBENCH_DIFFUSION_FUSED_CASCADE_H_
#define IMBENCH_DIFFUSION_FUSED_CASCADE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "diffusion/cascade.h"
#include "graph/graph_view.h"

namespace imbench {

// Simulations fused per pass: one bit per simulation in a uint64_t.
inline constexpr uint32_t kFusedLanes = 64;

// Edge probabilities are quantized to kCoinBits binary digits when coin
// masks are built (absolute error <= 2^-(kCoinBits+1); 0 and 1 are exact).
// The comparison ladder draws one 64-bit word per digit until every lane
// is decided, so masks cost at most kCoinBits RNG draws per edge per
// block and about log2(64) + 2 in expectation — amortized over 64
// simulations.
inline constexpr int kCoinBits = 16;

// Reusable scratch for fused forward simulation. One context per thread;
// lane words are swept back to zero in O(touched) at block end, so
// repeated blocks never pay an O(n) clear.
class FusedCascadeContext {
 public:
  explicit FusedCascadeContext(const GraphView& graph);

  // Runs simulations [block*64, block*64 + lanes) of the ensemble keyed by
  // `seed` and writes Γ(S) of simulation block*64+j to gamma[j] for
  // j < lanes (a partial tail block uses lanes < 64). Returns the
  // compressed neighbor blocks decoded on the compact backend (0 on the
  // heap one). Both are deterministic in (seed, block, lanes, seeds) alone.
  uint64_t RunBlock(DiffusionKind kind, std::span<const NodeId> seeds,
                    uint64_t seed, uint64_t block, uint32_t lanes,
                    NodeId* gamma);

  // The per-block key all in-block streams derive from.
  static uint64_t BlockSeed(uint64_t seed, uint64_t block);

 private:
  void RunBlockIc(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void RunBlockLt(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void PrepareScratch(DiffusionKind kind);
  void Activate(NodeId v, uint64_t bits);
  const double* LtThresholds(NodeId v, uint64_t block_seed);

  GraphView graph_;
  // IC-only and LT-only scratch is sized by PrepareScratch.
  std::vector<uint32_t> p_fix_;  // per forward edge id, kCoinBits fixed point
  // Decode buffers for the compact backend: out-adjacency for IC and the
  // LT push, in-adjacency for the LT pull.
  AdjScratch out_scratch_;
  AdjScratch in_scratch_;

  uint32_t epoch_ = 0;
  // Invariant between blocks: every word is zero (restored by an
  // O(touched) sweep at block end), so a nonzero word doubles as the
  // "touched this block" marker and the hot loops carry no epoch stamps.
  std::vector<uint64_t> active_word_;
  std::vector<uint64_t> pending_word_;
  std::vector<uint32_t> mask_stamp_;  // u's out-edge masks valid this epoch
  std::vector<uint64_t> edge_mask_;   // per forward edge id
  std::vector<uint32_t> lt_stamp_;    // v's thresholds valid this epoch
  std::vector<uint32_t> lt_slot_;
  std::vector<double> lt_thresh_;     // 64 per slot, touched nodes only
  uint32_t lt_slots_used_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> touched_;
  // Lanes contacted in the current LT level; zero outside a level's pull.
  std::vector<uint64_t> contact_word_;
  std::vector<NodeId> contacted_;  // nodes with a nonzero contact word
};

// Replays one simulation of the fused ensemble with a plain sequential
// BFS, deriving the same coin masks / thresholds from the same streams.
// Returns Γ(S) for simulation `index`; bit-for-bit equal to lane index%64
// of FusedCascadeContext::RunBlock(..., index/64, ...). This is the
// differential anchor for the fused kernels (tests/fused_cascade_test.cc).
NodeId FusedScalarReplay(const GraphView& graph, DiffusionKind kind,
                         std::span<const NodeId> seeds, uint64_t seed,
                         uint64_t index);

// Fused reverse-reachable set generation under IC: 64 RR sets per pass,
// one lane per set. Used by both RR engines when SamplerOptions::engine
// selects the fused kernel.
class FusedRrContext {
 public:
  explicit FusedRrContext(const GraphView& graph);

  // Generates RR sets for stream indices [first, first+count), appending
  // each set's members (root first, then the rest ascending by node id —
  // a canonical order, because the block-level discovery order depends on
  // which sibling lanes ran in the same pass) to `members`,
  // its length to `sizes`, and — when `widths` is non-null — its width
  // (sum of in-degrees over members, the scalar sampler's edges-examined
  // count) to `widths`. Ranges may start unaligned and span block
  // boundaries; the output for index i never depends on the partition.
  void GenerateRange(uint64_t seed, uint64_t first, uint32_t count,
                     std::vector<NodeId>& members,
                     std::vector<uint32_t>& sizes,
                     std::vector<uint64_t>* widths);

  static uint64_t BlockSeed(uint64_t seed, uint64_t block);

 private:
  void RunBlock(uint64_t seed, uint64_t block, uint32_t lane_lo,
                uint32_t lane_count, std::vector<NodeId>& members,
                std::vector<uint32_t>& sizes, std::vector<uint64_t>* widths);

  GraphView graph_;
  std::vector<uint32_t> p_fix_;  // per in-edge position, kCoinBits fixed pt
  AdjScratch in_scratch_;        // compact-backend decode buffer

  uint32_t epoch_ = 0;
  // Same zero-between-blocks word invariant as FusedCascadeContext.
  std::vector<uint64_t> active_word_;
  std::vector<uint64_t> pending_word_;
  std::vector<uint32_t> mask_stamp_;  // v's in-edge masks valid this epoch
  std::vector<uint64_t> edge_mask_;   // per in-edge position
  std::vector<NodeId> queue_;
  std::vector<NodeId> touched_;
};

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_FUSED_CASCADE_H_
