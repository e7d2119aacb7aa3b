#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace imbench {
namespace {

// Appends src[begin, end) to *dst.
template <typename T>
void AppendRun(const std::vector<T>& src, EdgeId begin, EdgeId end,
               std::vector<T>* dst) {
  dst->insert(dst->end(), src.begin() + static_cast<ptrdiff_t>(begin),
              src.begin() + static_cast<ptrdiff_t>(end));
}

// One side's offsets after one entry is inserted into the list of each
// node in `owners` (ascending, repeats allowed): node u's list moves back
// by the inserts owned by nodes before u.
std::vector<EdgeId> ShiftedOffsets(const std::vector<EdgeId>& offsets,
                                   std::span<const NodeId> owners) {
  std::vector<EdgeId> shifted(offsets.size());
  size_t before = 0;
  for (size_t u = 0; u < offsets.size(); ++u) {
    while (before < owners.size() && owners[before] < u) ++before;
    shifted[u] = offsets[u] + before;
  }
  return shifted;
}

// The inserts at or before old forward id e (`inserted_at` ascending and
// non-empty). Branchless, since every in-entry behind an insert asks.
EdgeId InsertsAtOrBefore(std::span<const EdgeId> inserted_at, EdgeId e) {
  const EdgeId* base = inserted_at.data();
  for (size_t n = inserted_at.size(); n > 1;) {
    const size_t half = n / 2;
    base += base[half] <= e ? half : 0;
    n -= half;
  }
  return static_cast<EdgeId>(base - inserted_at.data()) + (*base <= e);
}

}  // namespace

Graph Graph::FromArcs(NodeId num_nodes, std::vector<Arc> arcs,
                      const GraphOptions& options) {
  for (const Arc& a : arcs) {
    IMBENCH_CHECK_MSG(a.source < num_nodes && a.target < num_nodes,
                      "arc (%u, %u) out of range for %u nodes", a.source,
                      a.target, num_nodes);
  }
  if (options.make_bidirectional) {
    const size_t original = arcs.size();
    arcs.reserve(original * 2);
    for (size_t i = 0; i < original; ++i) {
      arcs.push_back(Arc{arcs[i].target, arcs[i].source});
    }
  }
  std::erase_if(arcs, [](const Arc& a) { return a.source == a.target; });
  std::sort(arcs.begin(), arcs.end(), [](const Arc& x, const Arc& y) {
    return x.source != y.source ? x.source < y.source : x.target < y.target;
  });

  Graph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_.assign(num_nodes + 1, 0);

  std::vector<uint32_t> multiplicities;
  size_t write = 0;
  for (size_t read = 0; read < arcs.size();) {
    size_t run = read + 1;
    while (run < arcs.size() && arcs[run] == arcs[read]) ++run;
    arcs[write] = arcs[read];
    multiplicities.push_back(static_cast<uint32_t>(run - read));
    ++write;
    read = run;
  }
  arcs.resize(write);
  // Store multiplicities only if a parallel arc actually existed; a graph
  // without one keeps no buffer (nor its capacity) at all.
  const bool any_parallel =
      std::any_of(multiplicities.begin(), multiplicities.end(),
                  [](uint32_t c) { return c > 1; });
  if (any_parallel) g.multiplicities_ = std::move(multiplicities);

  const size_t m = arcs.size();
  g.out_targets_.resize(m);
  g.out_weights_.assign(m, 0.0);
  for (const Arc& a : arcs) ++g.out_offsets_[a.source + 1];
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
  }
  // Arcs are sorted by source, so CSR fill is a single pass.
  for (size_t i = 0; i < m; ++i) {
    g.out_targets_[i] = arcs[i].target;
  }

  // Reverse CSR.
  g.in_offsets_.assign(num_nodes + 1, 0);
  g.in_sources_.resize(m);
  g.in_weights_.assign(m, 0.0);
  g.in_edge_ids_.resize(m);
  for (size_t i = 0; i < m; ++i) ++g.in_offsets_[arcs[i].target + 1];
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (size_t i = 0; i < m; ++i) {
    const EdgeId pos = cursor[arcs[i].target]++;
    g.in_sources_[pos] = arcs[i].source;
    g.in_edge_ids_[pos] = static_cast<EdgeId>(i);
  }
  return g;
}

Graph Graph::Clone() const {
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.out_offsets_ = out_offsets_;
  g.out_targets_ = out_targets_;
  g.out_weights_ = out_weights_;
  g.in_offsets_ = in_offsets_;
  g.in_sources_ = in_sources_;
  g.in_weights_ = in_weights_;
  g.in_edge_ids_ = in_edge_ids_;
  g.multiplicities_ = multiplicities_;
  return g;
}

Graph Graph::WithArcs(std::span<const WeightedArc> edits) const {
  // Where each edit lands in the old CSR: its out-position (the id of the
  // existing edge, or the old edge an insert goes before) and likewise its
  // in-position. In-lists ascend by source, as FromArcs fills them in
  // (source, target) order.
  struct Site {
    EdgeId out = 0;
    EdgeId in = 0;
    bool present = false;
    EdgeId id = 0;  // an insert's forward id in the successor
  };
  std::vector<Site> sites(edits.size());
  std::vector<EdgeId> inserted_at;  // out-positions of inserts, ascending
  std::vector<NodeId> out_owners;   // their sources, ascending
  for (size_t i = 0; i < edits.size(); ++i) {
    const WeightedArc& a = edits[i];
    IMBENCH_CHECK_MSG(a.source < num_nodes_ && a.target < num_nodes_,
                      "arc (%u, %u) out of range for %u nodes", a.source,
                      a.target, num_nodes_);
    IMBENCH_CHECK_MSG(a.source != a.target, "self loop (%u, %u) rejected",
                      a.source, a.target);
    IMBENCH_CHECK_MSG(i == 0 || edits[i - 1].source < a.source ||
                          (edits[i - 1].source == a.source &&
                           edits[i - 1].target < a.target),
                      "WithArcs: edits not sorted and unique at (%u, %u)",
                      a.source, a.target);
    const std::span<const NodeId> targets = OutTargets(a.source);
    const auto out = std::lower_bound(targets.begin(), targets.end(), a.target);
    const std::span<const NodeId> sources = InSources(a.target);
    const auto in = std::lower_bound(sources.begin(), sources.end(), a.source);
    Site& site = sites[i];
    site.out = out_offsets_[a.source] +
               static_cast<EdgeId>(out - targets.begin());
    site.in =
        in_offsets_[a.target] + static_cast<EdgeId>(in - sources.begin());
    site.present = out != targets.end() && *out == a.target;
    if (!site.present) {
      site.id = site.out + inserted_at.size();
      inserted_at.push_back(site.out);
      out_owners.push_back(a.source);
    }
  }
  const EdgeId m = num_edges() + inserted_at.size();

  Graph g;
  g.num_nodes_ = num_nodes_;
  g.out_offsets_ = ShiftedOffsets(out_offsets_, out_owners);
  g.out_targets_.reserve(m);
  g.out_weights_.reserve(m);
  const bool parallel = has_parallel_arcs();
  if (parallel) g.multiplicities_.reserve(m);
  EdgeId copied = 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    const Site& site = sites[i];
    const EdgeId run_end = site.present ? site.out + 1 : site.out;
    AppendRun(out_targets_, copied, run_end, &g.out_targets_);
    AppendRun(out_weights_, copied, run_end, &g.out_weights_);
    if (parallel) {
      AppendRun(multiplicities_, copied, run_end, &g.multiplicities_);
    }
    copied = run_end;
    if (site.present) {
      g.out_weights_.back() = edits[i].weight;
      continue;
    }
    g.out_targets_.push_back(edits[i].target);
    g.out_weights_.push_back(edits[i].weight);
    if (parallel) g.multiplicities_.push_back(1);
  }
  AppendRun(out_targets_, copied, num_edges(), &g.out_targets_);
  AppendRun(out_weights_, copied, num_edges(), &g.out_weights_);
  if (parallel) {
    AppendRun(multiplicities_, copied, num_edges(), &g.multiplicities_);
  }

  // The in side visits the edits in (target, source) order. An old edge
  // moves back by the inserts at or before its old forward id.
  std::vector<size_t> by_target(edits.size());
  std::iota(by_target.begin(), by_target.end(), size_t{0});
  std::sort(by_target.begin(), by_target.end(), [&](size_t x, size_t y) {
    return edits[x].target != edits[y].target
               ? edits[x].target < edits[y].target
               : edits[x].source < edits[y].source;
  });
  std::vector<NodeId> in_owners;
  in_owners.reserve(inserted_at.size());
  for (const size_t i : by_target) {
    if (!sites[i].present) in_owners.push_back(edits[i].target);
  }
  auto append_ids = [&](EdgeId begin, EdgeId end) {
    if (inserted_at.empty()) {
      AppendRun(in_edge_ids_, begin, end, &g.in_edge_ids_);
      return;
    }
    for (EdgeId p = begin; p < end; ++p) {
      const EdgeId e = in_edge_ids_[p];
      g.in_edge_ids_.push_back(e + InsertsAtOrBefore(inserted_at, e));
    }
  };
  g.in_offsets_ = ShiftedOffsets(in_offsets_, in_owners);
  g.in_sources_.reserve(m);
  g.in_weights_.reserve(m);
  g.in_edge_ids_.reserve(m);
  copied = 0;
  for (const size_t i : by_target) {
    const Site& site = sites[i];
    const EdgeId run_end = site.present ? site.in + 1 : site.in;
    AppendRun(in_sources_, copied, run_end, &g.in_sources_);
    AppendRun(in_weights_, copied, run_end, &g.in_weights_);
    append_ids(copied, run_end);
    copied = run_end;
    if (site.present) {
      g.in_weights_.back() = edits[i].weight;
      continue;
    }
    g.in_sources_.push_back(edits[i].source);
    g.in_weights_.push_back(edits[i].weight);
    g.in_edge_ids_.push_back(site.id);
  }
  AppendRun(in_sources_, copied, num_edges(), &g.in_sources_);
  AppendRun(in_weights_, copied, num_edges(), &g.in_weights_);
  append_ids(copied, num_edges());
  return g;
}

void Graph::SetWeights(std::span<const double> weights) {
  IMBENCH_CHECK(weights.size() == out_weights_.size());
  std::copy(weights.begin(), weights.end(), out_weights_.begin());
  for (size_t i = 0; i < in_edge_ids_.size(); ++i) {
    in_weights_[i] = out_weights_[in_edge_ids_[i]];
  }
}

EdgeId Graph::FindEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) return kInvalidEdge;
  const NodeId* begin = out_targets_.data() + out_offsets_[u];
  const NodeId* end = out_targets_.data() + out_offsets_[u + 1];
  const NodeId* it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) return kInvalidEdge;
  return out_offsets_[u] + static_cast<EdgeId>(it - begin);
}

double Graph::InWeightSum(NodeId v) const {
  double sum = 0;
  for (double w : InWeights(v)) sum += w;
  return sum;
}

uint64_t Graph::MemoryBytes() const {
  auto bytes = [](const auto& vec) {
    return static_cast<uint64_t>(vec.capacity() * sizeof(vec[0]));
  };
  return bytes(out_offsets_) + bytes(out_targets_) + bytes(out_weights_) +
         bytes(in_offsets_) + bytes(in_sources_) + bytes(in_weights_) +
         bytes(in_edge_ids_) + bytes(multiplicities_);
}

}  // namespace imbench
