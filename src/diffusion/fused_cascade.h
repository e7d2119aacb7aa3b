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
//     on first contact into a 64-double slot, and the block runs one
//     push-only FIFO loop, the same shape as IC's. Popping u pushes each
//     out-edge (u, v): for every lane of u's frontier where v is still
//     inactive, W(u, v) is subtracted in place from the lane's slot, which
//     so holds t_j − Σw over v's pushed in-neighbors, in activation order.
//     A slot below −B activates the lane at once, one above +B rejects it
//     for now, and only a slot inside [−B, B] takes the exact path: it
//     redraws t_j from the stream and sums the lane's active in-weights in
//     in-edge order, the replay's own expression. B (LtRoundingMargin)
//     bounds the rounding error of both sums together, so the fast
//     decisions agree with that comparison, and the exact path decides
//     the rest with it. Why Γ matches a per-contact recompute bit for bit:
//     a fixed-order sum of nonnegative terms only grows when a term is
//     added (FP rounding is monotone), so every schedule that re-checks a
//     node after each activation of an in-neighbor, and activates only on
//     a sum computed from already-active lanes, ends at the same least
//     fixed point. The push re-checks v after every in-neighbor's push;
//     FusedScalarReplay's naive per-contact recompute in BFS order is
//     another such schedule, so Γ agrees lane for lane. The running sums
//     cost no memory of their own: they live in the threshold slots, and
//     the exact path redraws the thresholds instead of keeping a copy, so
//     a contacted node holds one 64-double slot and no other LT state.
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

// The fused LT decision margin B for a graph whose in-degrees are at most
// `max_in_degree` and whose edge weights are at most `max_weight` in
// magnitude. With D = max_in_degree and W = D * max_weight, for any
// k <= D in-weights of one node and any threshold |t| <= 1 + W, B bounds
//
//   |fl(t − w_π1 − … − w_πk) − (t − S)| + |fl(w_1 + … + w_k) − S|
//
// (exact sum S; the first float runs in any activation order π, the
// second in in-edge order), plus one ulp of the in-edge-order sum, so a
// threshold within one ulp of that sum always lands in the exact path.
// Recursive summation of n terms errs by at most γ_(n−1) times the sum of
// their magnitudes (γ_n = nu/(1 − nu), u = 2^-53; Higham, "Accuracy and
// Stability of Numerical Algorithms", eq. 4.4), so the two sums err by at
// most γ_D(1 + 2W) and γ_D·W; the ulp adds at most 2u·W(1 + γ_D). The
// margin is 2(D + 2)u(1 + 3W) >= γ_(D+2)(1 + 3W), which covers all three
// and the rounding of computing it. Sums above 1 are allowed: edge-list
// weights are not validated against it. +inf (every lane exact) when a
// weight is not finite or W overflows.
double LtRoundingMargin(uint64_t max_in_degree, double max_weight);

// The fused LT kernel's three-way decision on a lane's slot, t − Σw.
enum class LtDecision { kActivate, kReject, kExact };
inline LtDecision DecideLt(double residual, double margin) {
  if (residual < -margin) return LtDecision::kActivate;
  if (residual > margin) return LtDecision::kReject;
  return LtDecision::kExact;  // also a NaN slot
}

// Every edge weight in kCoinBits fixed point, indexed by forward edge id:
// the IC kernel's coin probabilities. A pure function of the weights, so
// one table serves every lane of an estimate.
std::vector<uint32_t> FixedPointProbs(std::span<const double> weights);

// Reusable scratch for fused forward simulation. One context per thread;
// lane words are swept back to zero in O(touched) at block end, so
// repeated blocks never pay an O(n) clear.
class FusedCascadeContext {
 public:
  // `coin_probs`, when given, is FixedPointProbs(graph.weights()), read
  // only and outliving the context, so the lanes of one estimate share
  // one table; without it the context builds its own on its first IC
  // block.
  explicit FusedCascadeContext(const GraphView& graph,
                               std::span<const uint32_t> coin_probs = {});
  // p_fix_ may view own_p_fix_, which a copy would not carry along.
  FusedCascadeContext(const FusedCascadeContext&) = delete;
  FusedCascadeContext& operator=(const FusedCascadeContext&) = delete;

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

  // LT lanes the exact in-edge sweep decided over this context's life.
  uint64_t exact_lanes() const { return exact_lanes_; }

 private:
  friend class FusedCascadeContextTestPeer;

  void RunBlockIc(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void RunBlockLt(std::span<const NodeId> seeds, uint64_t block_seed,
                  uint64_t lane_mask);
  void PrepareScratch(DiffusionKind kind);
  void Activate(NodeId v, uint64_t bits);
  double* LtSlot(NodeId v, uint64_t block_seed);
  uint64_t LtExactSweep(NodeId v, uint64_t lanes, uint64_t block_seed);

  GraphView graph_;
  // IC-only and LT-only scratch is sized by PrepareScratch.
  // Per forward edge id, kCoinBits fixed point: the shared table, or
  // own_p_fix_ when none was given.
  std::span<const uint32_t> p_fix_;
  std::vector<uint32_t> own_p_fix_;
  // Decode buffers for the compact backend: out-adjacency for IC and the
  // LT push, in-adjacency for the LT exact sweep.
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
  std::vector<uint32_t> lt_stamp_;    // v's slot valid this epoch
  std::vector<uint32_t> lt_slot_;
  std::vector<double> lt_residual_;   // 64 per slot, contacted nodes only
  uint32_t lt_slots_used_ = 0;
  double lt_margin_ = 0;              // LtRoundingMargin of the graph
  uint64_t exact_lanes_ = 0;
  std::vector<NodeId> queue_;
  std::vector<NodeId> touched_;
};

// Replays one simulation of the fused ensemble with a plain sequential
// BFS, deriving the same coin masks / thresholds from the same streams.
// Returns Γ(S) for simulation `index`; bit-for-bit equal to lane index%64
// of FusedCascadeContext::RunBlock(..., index/64, ...). This is the
// differential anchor for the fused kernels (tests/fused_cascade_test.cc).
NodeId FusedScalarReplay(const GraphView& graph, DiffusionKind kind,
                         std::span<const NodeId> seeds, uint64_t seed,
                         uint64_t index);

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_FUSED_CASCADE_H_
