// Single-cascade simulation under the IC and LT models (Alg. 1, Defs. 4-5).
//
// A CascadeContext owns reusable scratch buffers with epoch-stamped state,
// so running many Monte-Carlo simulations never pays an O(n) clear: a node
// is "touched this simulation" iff its stamp equals the current epoch.
#ifndef IMBENCH_DIFFUSION_CASCADE_H_
#define IMBENCH_DIFFUSION_CASCADE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph_view.h"

namespace imbench {

// The information-diffusion process I (Sec. 2).
enum class DiffusionKind {
  kIndependentCascade,
  kLinearThreshold,
};

const char* DiffusionKindName(DiffusionKind kind);

// Reusable simulation scratch. One context per thread.
class CascadeContext {
 public:
  explicit CascadeContext(NodeId num_nodes);

  // Runs one cascade from `seeds` and returns Γ(S), the number of active
  // nodes including the seeds (Definition 6). `graph` may be either backend (GraphView converts implicitly from
  // Graph); the compact path decodes each frontier node's out-block into
  // this context's scratch.
  NodeId Simulate(const GraphView& graph, DiffusionKind kind,
                  std::span<const NodeId> seeds, Rng& rng);

  // The nodes activated by the most recent Simulate() call, seeds first.
  std::span<const NodeId> active() const { return active_; }

  // Continues the cascade of the most recent Simulate() call from
  // additional seeds, returning the *total* active count afterwards. Valid
  // for both models: under the live-edge view, activating extra seeds
  // later yields the same distribution as seeding them up front, and the
  // LT threshold/accumulator state is preserved within the epoch. Used by
  // StreamingScratch::EstimatePair, which gives CELF++ σ(S∪{v}) and
  // σ(S∪{v}∪{cur_best}) from one batch of simulations.
  NodeId Continue(const GraphView& graph, DiffusionKind kind,
                  std::span<const NodeId> extra_seeds, Rng& rng);

  // Compressed blocks decoded since the last call; flushed to the trace at
  // sequential estimator sites only (thread-count invariance).
  uint64_t TakeBlocksDecoded() {
    const uint64_t n = scratch_.blocks_decoded;
    scratch_.blocks_decoded = 0;
    return n;
  }

 private:
  // Enqueues not-yet-active seeds and drains the BFS queue from
  // `resume_head`, returning the total active count.
  NodeId Run(const GraphView& graph, DiffusionKind kind,
             std::span<const NodeId> seeds, size_t resume_head, Rng& rng);

  uint32_t epoch_ = 0;
  std::vector<uint32_t> active_stamp_;   // node is active this epoch
  std::vector<uint32_t> touched_stamp_;  // LT: threshold/acc are valid
  std::vector<double> threshold_;        // LT: θ_v for this epoch
  std::vector<double> accumulated_;      // LT: sum of active in-weights
  std::vector<NodeId> active_;           // BFS queue == active set
  AdjScratch scratch_;                   // compact-backend decode buffer
};

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_CASCADE_H_
