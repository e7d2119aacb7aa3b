#include "algorithms/simpath.h"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/check.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// Backtracking simple-path enumerator with the η cutoff. Supports a small
// set of "tracked" candidate nodes: the products of all enumerated paths
// passing through tracked node c accumulate into minus[slot(c)], which is
// what the look-ahead optimization needs to form σ^{V−c}(S) in one pass.
//
// A frame takes its node's out-adjacency once, when it is pushed: spans
// straight into the heap CSR, or a decode into the scratch of the frame's
// depth on the compact backend. A depth's scratch is reused only after its
// frame is popped, so every frame on the stack keeps valid spans.
class PathEnumerator {
 public:
  PathEnumerator(const GraphView& graph, double eta, RunGuard* guard)
      : graph_(graph),
        eta_(eta),
        guard_(guard),
        on_path_(graph.num_nodes(), 0),
        banned_(graph.num_nodes(), 0),
        cand_slot_(graph.num_nodes(), -1) {}

  void Ban(NodeId v) { banned_[v] = 1; }
  void Unban(NodeId v) { banned_[v] = 0; }

  void SetCandidates(const std::vector<NodeId>& candidates) {
    for (const NodeId c : tracked_) cand_slot_[c] = -1;
    tracked_ = candidates;
    minus_.assign(candidates.size(), 0.0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      cand_slot_[candidates[i]] = static_cast<int32_t>(i);
    }
  }
  void ClearCandidates() { SetCandidates({}); }
  double minus(size_t slot) const { return minus_[slot]; }

  uint64_t blocks_decoded() const {
    uint64_t total = 0;
    for (const AdjScratch& scratch : depth_scratch_) {
      total += scratch.blocks_decoded;
    }
    return total;
  }

  // Spread contribution of `root` in the subgraph excluding banned nodes:
  // 1 + Σ over simple paths from root (product >= η) of the product.
  double Enumerate(NodeId root) {
    IMBENCH_CHECK(!banned_[root]);
    double total = 1.0;
    frames_.clear();
    active_slots_.clear();
    Push(root, 1.0, false);
    on_path_[root] = 1;
    while (!frames_.empty()) {
      if (GuardShouldStop(guard_)) {
        // Abandon the enumeration mid-path: unwind the stack so on_path_
        // stays consistent for any later (equally truncated) calls.
        for (const Frame& f : frames_) on_path_[f.node] = 0;
        frames_.clear();
        active_slots_.clear();
        break;
      }
      Frame& frame = frames_.back();
      if (frame.cursor < frame.out.nodes.size()) {
        const NodeId w = frame.out.nodes[frame.cursor];
        const double p = frame.product * frame.out.weights[frame.cursor];
        ++frame.cursor;
        if (on_path_[w] || banned_[w] || p < eta_) continue;
        total += p;
        // This path's product must vanish from σ^{V−c}(S) for every
        // tracked candidate c on the path — including w itself.
        const int32_t w_slot = cand_slot_[w];
        if (w_slot >= 0) minus_[w_slot] += p;
        for (const int32_t slot : active_slots_) minus_[slot] += p;
        on_path_[w] = 1;
        const bool pushed_slot = w_slot >= 0;
        if (pushed_slot) active_slots_.push_back(w_slot);
        Push(w, p, pushed_slot);
      } else {
        on_path_[frame.node] = 0;
        if (frame.pushed_slot) active_slots_.pop_back();
        frames_.pop_back();
      }
    }
    return total;
  }

 private:
  struct Frame {
    NodeId node;
    AdjView out;
    size_t cursor;
    double product;
    bool pushed_slot;
  };

  void Push(NodeId node, double product, bool pushed_slot) {
    const size_t depth = frames_.size();
    if (depth == depth_scratch_.size()) depth_scratch_.emplace_back();
    frames_.push_back(Frame{node, graph_.Out(node, depth_scratch_[depth]), 0,
                            product, pushed_slot});
  }

  GraphView graph_;
  double eta_;
  RunGuard* guard_;
  std::vector<uint8_t> on_path_;
  std::vector<uint8_t> banned_;
  std::vector<int32_t> cand_slot_;
  std::vector<double> minus_;
  std::vector<NodeId> tracked_;
  std::vector<Frame> frames_;
  // Element addresses stay put as it grows, so the spans of frames on the
  // stack never dangle.
  std::deque<AdjScratch> depth_scratch_;
  std::vector<int32_t> active_slots_;
};

struct CelfEntry {
  double gain;
  NodeId node;
  uint32_t round;

  friend bool operator<(const CelfEntry& a, const CelfEntry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

}  // namespace

SelectionResult Simpath::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  IMBENCH_CHECK(input.k <= graph.num_nodes());
  const NodeId n = graph.num_nodes();
  PathEnumerator enumerator(graph, options_.eta, input.guard);

  // First pass: σ({v}) for every node (no vertex-cover shortcut; see
  // header). These are exact under the η truncation, so CELF applies.
  std::vector<CelfEntry> heap;
  heap.reserve(n);
  {
    Span score_span(input.trace, "score");
    for (NodeId v = 0; v < n; ++v) {
      TraceAdd(input.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(input.guard)) break;
      TraceAdd(input.trace, TraceCounter::kNodeLookups);
      heap.push_back(CelfEntry{enumerator.Enumerate(v), v, 0});
    }
  }
  std::make_heap(heap.begin(), heap.end());

  std::vector<NodeId> seeds;
  double sigma_s = 0;  // σ(S) under the truncation

  std::vector<NodeId> batch;
  std::vector<CelfEntry> batch_entries;
  Span select_span(input.trace, "select");
  while (seeds.size() < input.k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    CelfEntry top = heap.back();
    heap.pop_back();
    TraceAdd(input.trace, TraceCounter::kGuardPolls);
    if (top.round == seeds.size() || GuardShouldStop(input.guard)) {
      // Fresh top entry — or draining, in which case the stale upper bound
      // is the best ranking we can afford.
      seeds.push_back(top.node);
      sigma_s += top.gain;
      continue;
    }
    // Look-ahead: gather up to ℓ stale candidates (including `top`).
    batch.clear();
    batch_entries.clear();
    batch.push_back(top.node);
    batch_entries.push_back(top);
    while (batch.size() < options_.lookahead && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end());
      CelfEntry entry = heap.back();
      heap.pop_back();
      if (entry.round == seeds.size()) {
        // Already current; keep it aside untouched.
        batch_entries.push_back(entry);
        continue;
      }
      batch.push_back(entry.node);
      batch_entries.push_back(entry);
    }

    // One enumeration batch over the seed set: σ(S) plus, per candidate c,
    // the mass of paths through c (σ^{V−c}(S) = σ(S) − minus[c]).
    enumerator.SetCandidates(batch);
    for (const NodeId s : seeds) enumerator.Ban(s);
    double sigma_s_fresh = 0;
    for (const NodeId s : seeds) {
      enumerator.Unban(s);
      sigma_s_fresh += enumerator.Enumerate(s);
      enumerator.Ban(s);
    }
    std::vector<double> sigma_minus_c(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      sigma_minus_c[i] = sigma_s_fresh - enumerator.minus(i);
    }
    enumerator.ClearCandidates();
    // σ^{V−S}(c) per candidate (seeds are still banned).
    for (size_t i = 0; i < batch.size(); ++i) {
      TraceAdd(input.trace, TraceCounter::kNodeLookups);
      TraceAdd(input.trace, TraceCounter::kQueueReevaluations);
      const double sigma_c_without_s = enumerator.Enumerate(batch[i]);
      const double gain = sigma_minus_c[i] + sigma_c_without_s - sigma_s_fresh;
      for (CelfEntry& entry : batch_entries) {
        if (entry.node == batch[i]) {
          entry.gain = gain;
          entry.round = static_cast<uint32_t>(seeds.size());
        }
      }
    }
    for (const NodeId s : seeds) enumerator.Unban(s);
    sigma_s = seeds.empty() ? 0 : sigma_s_fresh;
    for (const CelfEntry& entry : batch_entries) {
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end());
    }
  }

  TraceAdd(input.trace, TraceCounter::kNeighborBlocksDecoded,
           enumerator.blocks_decoded());
  SelectionResult result;
  result.seeds = std::move(seeds);
  result.internal_spread_estimate = sigma_s;
  result.stop_reason = GuardReason(input.guard);
  return result;
}

}  // namespace imbench
