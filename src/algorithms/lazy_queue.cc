#include "algorithms/lazy_queue.h"

#include <algorithm>

#include "framework/trace.h"

namespace imbench {
namespace {

struct Entry {
  double gain;
  NodeId node;
  uint32_t round;  // seed-set size at last evaluation

  // Max-heap by gain; ties broken by node id for determinism.
  friend bool operator<(const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

}  // namespace

std::vector<NodeId> CelfSelect(
    NodeId num_nodes, uint32_t k,
    const std::function<double(NodeId)>& marginal_gain,
    const std::function<void(NodeId)>& commit,
    RunGuard* guard, Trace* trace) {
  std::vector<Entry> heap;
  heap.reserve(num_nodes);
  // Round 0: evaluate every node once (the unavoidable first pass).
  for (NodeId v = 0; v < num_nodes; ++v) {
    TraceAdd(trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(guard)) break;
    TraceAdd(trace, TraceCounter::kNodeLookups);
    heap.push_back(Entry{marginal_gain(v), v, 0});
  }
  std::make_heap(heap.begin(), heap.end());

  std::vector<NodeId> seeds;
  seeds.reserve(k);
  while (seeds.size() < k && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    Entry top = heap.back();
    heap.pop_back();
    TraceAdd(trace, TraceCounter::kGuardPolls);
    const bool stopped = GuardShouldStop(guard);
    if (top.round == seeds.size() || stopped) {
      // Fresh entry, or draining: accept the stale upper bound rather than
      // spend more evaluations.
      seeds.push_back(top.node);
      if (!stopped) commit(top.node);
      continue;
    }
    // Stale: refresh against the current seed set and reinsert.
    TraceAdd(trace, TraceCounter::kNodeLookups);
    TraceAdd(trace, TraceCounter::kQueueReevaluations);
    top.gain = marginal_gain(top.node);
    top.round = static_cast<uint32_t>(seeds.size());
    heap.push_back(top);
    std::push_heap(heap.begin(), heap.end());
  }
  return seeds;
}

}  // namespace imbench
