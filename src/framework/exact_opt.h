// Exact influence-maximization optimum beyond the 2^m test-oracle frontier.
//
// Both diffusion models admit a live-edge view (Kempe et al.), so σ(S) is a
// finite weighted sum over live-edge instantiations. ExactSpreadOracle
// enumerates that distribution ONCE, collapses instantiations with identical
// per-node reachability into weighted closure classes (one 64-bit
// reachability mask per node per class, hence the n ≤ 64 limit), and then
// answers σ(S) and all marginal gains σ(S ∪ {v}) − σ(S) with popcount sums
// over the class table. That turns the per-set 2^m cost of the historical
// tests/oracle_util.h enumeration into a one-off 2^m table build plus
// O(classes · n) per evaluation — cheap enough to search over seed sets.
//
// BranchAndBoundOptimum finds max_{|S| = k} σ(S) exactly with an
// include/exclude search in lexicographic candidate order. The upper bound
// at a prefix S with candidates [next, n) is
//
//     σ(S) + Σ top-(k − |S|) marginal gains of the candidates,
//
// valid because σ is monotone submodular: every future pick's true marginal
// contribution is no larger than its gain at S. The search runs a doubling
// scheme on the incumbent (the classical B&B gap schedule): a greedy-seeded
// incumbent, then geometric gap-halving passes that prune against
// incumbent + gap to tighten the incumbent cheaply, and a final gap-0 pass
// that proves optimality. Budgets degrade gracefully: the RunGuard is
// polled at every tree node, a node-budget cap bounds the search size, and
// either trip returns the incumbent — a valid lower bound — tagged with an
// explicit non-proven status, never a silent wrong answer.
//
// Determinism contract: evaluations sum the class table in fixed-size
// blocks whose partial sums are reduced in block-index order, so σ values
// are bitwise identical whether the blocks run sequentially or fan out over
// the ThreadPool — results are byte-identical for any `threads` setting.
// Ties on σ resolve to the lexicographically smallest seed set, matching
// ExhaustiveOptimum exactly (bit-for-bit seeds and spread).
#ifndef IMBENCH_FRAMEWORK_EXACT_OPT_H_
#define IMBENCH_FRAMEWORK_EXACT_OPT_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/run_options.h"
#include "common/thread_pool.h"
#include "diffusion/cascade.h"
#include "framework/run_guard.h"
#include "graph/graph.h"

namespace imbench {

struct ExactOptOptions : CommonRunOptions {
  // Hard cap on B&B tree nodes expanded across all doubling passes
  // (0 = unlimited). Exceeding it returns the incumbent with kNodeBudget.
  uint64_t node_budget = 5'000'000;
  // Cap on live-edge instantiations enumerated for the closure table:
  // 2^(random IC edges), or the product of per-node (indeg + 1) choices
  // under LT. Feasibility is CHECKed — probe with ExactOracleFeasible().
  uint64_t max_instantiations = uint64_t{1} << 22;
  // Cap on deduplicated closure-table bytes; exceeding it trips the build
  // with StopReason::kMemory instead of exhausting the heap.
  uint64_t max_table_bytes = uint64_t{1} << 28;
  // Geometric gap-halving passes before the final exact (gap = 0) pass.
  uint32_t doubling_passes = 6;
};

// Whether the closure table fits the caps (n ≤ 64 and the instantiation
// budget). Callers that cannot tolerate a CHECK (bench harnesses on
// arbitrary graphs) probe this first and skip exact-opt when false.
bool ExactOracleFeasible(const Graph& graph, DiffusionKind kind,
                         const ExactOptOptions& options);

enum class ExactOptStatus : uint8_t {
  kProven = 0,  // search exhausted: seeds are the true optimum (lex-min)
  kNodeBudget,  // node budget hit: seeds are a valid lower-bound incumbent
  kStopped,     // RunGuard tripped (see `stop`): valid lower-bound incumbent
};

const char* ExactOptStatusName(ExactOptStatus status);

struct ExactOptResult {
  std::vector<NodeId> seeds;  // ascending ids; lex-min among ties if proven
  double spread = 0;          // exact σ(seeds) via the shared oracle path
  ExactOptStatus status = ExactOptStatus::kProven;
  StopReason stop = StopReason::kNone;  // why a kStopped search stopped
  double root_upper_bound = 0;  // submodular bound at the empty prefix
  uint64_t nodes_expanded = 0;
  uint64_t nodes_pruned = 0;
  uint64_t closure_classes = 0;  // deduplicated reachability classes

  bool proven() const { return status == ExactOptStatus::kProven; }
};

// The precomputed live-edge closure table. Expensive to build (the full
// instantiation enumeration), cheap to query; build once per (graph, kind)
// and share across searches. The build polls options.guard and the table
// byte cap; on a trip ok() is false and evaluations must not be used.
class ExactSpreadOracle {
 public:
  ExactSpreadOracle(const Graph& graph, DiffusionKind kind,
                    const ExactOptOptions& options);

  bool ok() const { return stop_ == StopReason::kNone; }
  StopReason stop() const { return stop_; }
  NodeId num_nodes() const { return n_; }
  uint64_t num_classes() const { return weights_.size(); }

  // Exact σ(S). Deterministic for any thread count (fixed-block sums).
  double Spread(std::span<const NodeId> seeds) const;

  // Exact σ(S), plus gains[v - first] = σ(S ∪ {v}) − σ(S) for every
  // candidate v in [first, n) — computed in the same pass over the table.
  double SpreadWithGains(std::span<const NodeId> seeds, NodeId first,
                         std::vector<double>* gains) const;

 private:
  void EnumerateIc(const Graph& graph, const ExactOptOptions& options);
  void EnumerateLt(const Graph& graph, const ExactOptOptions& options);
  // Folds the scratch closure (one mask per node) into the dedup table.
  void AddClass(const uint64_t* closure, double probability,
                uint64_t max_table_bytes);

  NodeId n_ = 0;
  Fanout fanout_;
  StopReason stop_ = StopReason::kNone;
  std::vector<uint64_t> closures_;  // n_ words per class
  std::vector<double> weights_;     // probability mass per class
  // Dedup index: closure hash -> class ids with that hash (collisions are
  // resolved by comparing the full closure words).
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets_;
};

// The true optimum over all C(n, k) seed sets by plain lexicographic
// enumeration through the shared oracle. Same tie-break, same evaluation
// path and therefore bitwise the same result as BranchAndBoundOptimum —
// the differential baseline, feasible only at small C(n, k).
ExactOptResult ExhaustiveOptimum(const Graph& graph, DiffusionKind kind,
                                 uint32_t k, const ExactOptOptions& options);

// Branch-and-bound exact optimum (see file comment). Reaches graphs ~10×
// larger than ExhaustiveOptimum within the default node budget.
ExactOptResult BranchAndBoundOptimum(const Graph& graph, DiffusionKind kind,
                                     uint32_t k,
                                     const ExactOptOptions& options);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_EXACT_OPT_H_
