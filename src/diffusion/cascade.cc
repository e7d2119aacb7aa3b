#include "diffusion/cascade.h"

#include "common/check.h"

namespace imbench {

const char* DiffusionKindName(DiffusionKind kind) {
  switch (kind) {
    case DiffusionKind::kIndependentCascade:
      return "IC";
    case DiffusionKind::kLinearThreshold:
      return "LT";
  }
  return "?";
}

CascadeContext::CascadeContext(NodeId num_nodes)
    : active_stamp_(num_nodes, 0),
      touched_stamp_(num_nodes, 0),
      threshold_(num_nodes, 0.0),
      accumulated_(num_nodes, 0.0) {}

NodeId CascadeContext::Simulate(const GraphView& graph, DiffusionKind kind,
                                std::span<const NodeId> seeds, Rng& rng) {
  IMBENCH_CHECK(graph.num_nodes() == active_stamp_.size());
  ++epoch_;
  active_.clear();
  return Run(graph, kind, seeds, 0, rng);
}

NodeId CascadeContext::Continue(const GraphView& graph, DiffusionKind kind,
                                std::span<const NodeId> extra_seeds,
                                Rng& rng) {
  return Run(graph, kind, extra_seeds, active_.size(), rng);
}

NodeId CascadeContext::Run(const GraphView& graph, DiffusionKind kind,
                           std::span<const NodeId> seeds, size_t resume_head,
                           Rng& rng) {
  for (const NodeId s : seeds) {
    if (active_stamp_[s] == epoch_) continue;
    active_stamp_[s] = epoch_;
    active_.push_back(s);
  }
  if (kind == DiffusionKind::kIndependentCascade) {
    // Discrete time unfolds implicitly: the queue is processed in
    // activation order, and each node gets exactly one chance to activate
    // each neighbor (Definition 4).
    for (size_t head = resume_head; head < active_.size(); ++head) {
      const NodeId u = active_[head];
      const auto [targets, weights] = graph.Out(u, scratch_);
      for (size_t i = 0; i < targets.size(); ++i) {
        const NodeId v = targets[i];
        if (active_stamp_[v] == epoch_) continue;
        if (rng.NextDouble() < weights[i]) {
          active_stamp_[v] = epoch_;
          active_.push_back(v);
        }
      }
    }
  } else {
    // LT: θ_v is drawn lazily on first contact; accumulated_[v] tracks the
    // weight of v's currently-active in-neighbors (Equation 1). The state
    // persists within the epoch, so Continue() composes correctly.
    for (size_t head = resume_head; head < active_.size(); ++head) {
      const NodeId u = active_[head];
      const auto [targets, weights] = graph.Out(u, scratch_);
      for (size_t i = 0; i < targets.size(); ++i) {
        const NodeId v = targets[i];
        if (active_stamp_[v] == epoch_) continue;
        if (touched_stamp_[v] != epoch_) {
          touched_stamp_[v] = epoch_;
          threshold_[v] = rng.NextDouble();
          accumulated_[v] = 0.0;
        }
        accumulated_[v] += weights[i];
        if (accumulated_[v] >= threshold_[v]) {
          active_stamp_[v] = epoch_;
          active_.push_back(v);
        }
      }
    }
  }
  return static_cast<NodeId>(active_.size());
}

}  // namespace imbench
