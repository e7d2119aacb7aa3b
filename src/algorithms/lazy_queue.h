// Lazy-forward (CELF-style) greedy selection shared by the simulation,
// snapshot and path-scoring techniques.
//
// Submodularity guarantees a node's marginal gain never increases as the
// seed set grows, so a stale queue entry is an upper bound: if the top
// entry was evaluated in the current round it is the true argmax and can be
// selected without touching the rest of the queue (Leskovec et al., KDD'07).
#ifndef IMBENCH_ALGORITHMS_LAZY_QUEUE_H_
#define IMBENCH_ALGORITHMS_LAZY_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "algorithms/algorithm.h"
#include "graph/graph.h"

namespace imbench {

// Runs CELF over nodes [0, num_nodes).
//
//   marginal_gain(v): evaluates v's marginal gain w.r.t. the current seed
//     set (expensive; typically r MC simulations). Counted as one node
//     lookup per call.
//   commit(v): invoked when v is selected, so the caller can fold v into
//     its incremental state before the next round's evaluations.
//
// Returns the selected seeds (size min(k, num_nodes)).
//
// When `guard` is non-null it is polled between evaluations. Once tripped,
// no further gains are evaluated: the initial pass stops where it is, and
// the refresh loop degrades to accepting stale upper-bound gains (still a
// sensible ranking under submodularity) so a fully-built queue can cheaply
// fill the remaining slots. `commit` is not called for those degraded picks
// since the caller's incremental state no longer matters.
// `trace` (optional) receives kNodeLookups per gain evaluation,
// kQueueReevaluations per stale refresh and kGuardPolls per guard poll.
std::vector<NodeId> CelfSelect(
    NodeId num_nodes, uint32_t k,
    const std::function<double(NodeId)>& marginal_gain,
    const std::function<void(NodeId)>& commit,
    RunGuard* guard = nullptr, Trace* trace = nullptr);

}  // namespace imbench

#endif  // IMBENCH_ALGORITHMS_LAZY_QUEUE_H_
