#include "framework/exact_opt.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "common/thread_pool.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// Classes summed per evaluation block. The block structure is part of the
// determinism contract: partial sums are produced per block and reduced in
// block-index order whether the blocks run sequentially or on the pool.
constexpr uint64_t kEvalBlockClasses = 2048;

// Tie tolerance for pruning decisions. The bound and the incumbent come
// from the same fixed-block summation, but the bound adds the top gains in
// a different order than a leaf evaluation would, so exact equality is not
// guaranteed for subtrees that tie the incumbent. The slack keeps every
// potentially-tying subtree alive, preserving the lex-min tie-break; it
// only risks expanding (never pruning) a borderline subtree.
constexpr double kBoundSlack = 1e-9;

struct LiveEdge {
  NodeId source = 0;
  NodeId target = 0;
};

uint64_t HashClosure(const uint64_t* closure, NodeId n) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (NodeId v = 0; v < n; ++v) {
    h ^= closure[v];
    h *= 1099511628211ull;
  }
  return h;
}

// Per-node reachability masks over the live edges: closure[u] is the bit
// set of nodes reachable from u (including u). Fixpoint relaxation; the
// sweep count is bounded by the longest live path.
void ComputeClosure(NodeId n, const std::vector<LiveEdge>& live,
                    uint64_t* closure) {
  for (NodeId v = 0; v < n; ++v) closure[v] = uint64_t{1} << v;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const LiveEdge& e : live) {
      const uint64_t merged = closure[e.source] | closure[e.target];
      if (merged != closure[e.source]) {
        closure[e.source] = merged;
        changed = true;
      }
    }
  }
}

// Forward edges in edge-id order with their weights (mirrors the ordering
// of the historical tests/oracle_util.h enumeration).
struct WeightedEdge {
  NodeId source = 0;
  NodeId target = 0;
  double weight = 0;
};

std::vector<WeightedEdge> ForwardEdges(const Graph& graph) {
  std::vector<WeightedEdge> edges;
  edges.reserve(graph.num_edges());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto targets = graph.OutTargets(u);
    const auto weights = graph.OutWeights(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      edges.push_back(WeightedEdge{u, targets[i], weights[i]});
    }
  }
  return edges;
}

// IC edges split by determinism: certain edges are live (w >= 1) or dead
// (w <= 0) in every instantiation; only the rest need enumerating.
uint32_t CountRandomIcEdges(const Graph& graph) {
  uint32_t random = 0;
  for (const WeightedEdge& e : ForwardEdges(graph)) {
    if (e.weight > 0.0 && e.weight < 1.0) ++random;
  }
  return random;
}

double LtCombinations(const Graph& graph) {
  double combos = 1;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    combos *= graph.InDegree(v) + 1.0;
  }
  return combos;
}

}  // namespace

bool ExactOracleFeasible(const Graph& graph, DiffusionKind kind,
                         const ExactOptOptions& options) {
  if (graph.num_nodes() > 64) return false;
  if (kind == DiffusionKind::kIndependentCascade) {
    const uint32_t random = CountRandomIcEdges(graph);
    return random < 64 &&
           (uint64_t{1} << random) <= options.max_instantiations;
  }
  return LtCombinations(graph) <=
         static_cast<double>(options.max_instantiations);
}

const char* ExactOptStatusName(ExactOptStatus status) {
  switch (status) {
    case ExactOptStatus::kProven:
      return "proven";
    case ExactOptStatus::kNodeBudget:
      return "node-budget";
    case ExactOptStatus::kStopped:
      return "stopped";
  }
  return "?";
}

ExactSpreadOracle::ExactSpreadOracle(const Graph& graph, DiffusionKind kind,
                                     const ExactOptOptions& options)
    : n_(graph.num_nodes()),
      fanout_(ResolveFanout(options.threads, options.pool)) {
  IMBENCH_CHECK_MSG(ExactOracleFeasible(graph, kind, options),
                    "graph exceeds the exact-oracle caps (n <= 64, "
                    "instantiations <= %llu)",
                    static_cast<unsigned long long>(
                        options.max_instantiations));
  Span span(options.trace, "closure_table");
  if (kind == DiffusionKind::kIndependentCascade) {
    EnumerateIc(graph, options);
  } else {
    EnumerateLt(graph, options);
  }
  if (stop_ != StopReason::kNone) {
    closures_.clear();
    weights_.clear();
    buckets_.clear();
  }
}

void ExactSpreadOracle::AddClass(const uint64_t* closure, double probability,
                                 uint64_t max_table_bytes) {
  const uint64_t hash = HashClosure(closure, n_);
  std::vector<uint32_t>& bucket = buckets_[hash];
  for (const uint32_t id : bucket) {
    if (std::memcmp(&closures_[static_cast<size_t>(id) * n_], closure,
                    sizeof(uint64_t) * n_) == 0) {
      weights_[id] += probability;
      return;
    }
  }
  if ((closures_.size() + n_) * sizeof(uint64_t) > max_table_bytes) {
    stop_ = StopReason::kMemory;
    return;
  }
  bucket.push_back(static_cast<uint32_t>(weights_.size()));
  closures_.insert(closures_.end(), closure, closure + n_);
  weights_.push_back(probability);
}

void ExactSpreadOracle::EnumerateIc(const Graph& graph,
                                    const ExactOptOptions& options) {
  const std::vector<WeightedEdge> edges = ForwardEdges(graph);
  std::vector<LiveEdge> certain;   // live in every instantiation
  std::vector<WeightedEdge> random;
  for (const WeightedEdge& e : edges) {
    if (e.weight >= 1.0) {
      certain.push_back(LiveEdge{e.source, e.target});
    } else if (e.weight > 0.0) {
      random.push_back(e);
    }
  }
  const uint32_t r = static_cast<uint32_t>(random.size());
  std::vector<LiveEdge> live;
  live.reserve(certain.size() + r);
  std::vector<uint64_t> closure(n_);
  for (uint64_t mask = 0; mask < (uint64_t{1} << r); ++mask) {
    if (GuardShouldStop(options.guard)) {
      stop_ = GuardReason(options.guard);
      return;
    }
    double prob = 1;
    live.assign(certain.begin(), certain.end());
    for (uint32_t e = 0; e < r; ++e) {
      if ((mask >> e) & 1) {
        prob *= random[e].weight;
        live.push_back(LiveEdge{random[e].source, random[e].target});
      } else {
        prob *= 1.0 - random[e].weight;
      }
    }
    if (prob <= 0) continue;
    ComputeClosure(n_, live, closure.data());
    AddClass(closure.data(), prob, options.max_table_bytes);
    if (stop_ != StopReason::kNone) return;
  }
}

void ExactSpreadOracle::EnumerateLt(const Graph& graph,
                                    const ExactOptOptions& options) {
  std::vector<double> residual(n_);
  for (NodeId v = 0; v < n_; ++v) {
    residual[v] = std::max(0.0, 1.0 - graph.InWeightSum(v));
  }
  // Odometer over each node's live in-edge choice, least-significant node
  // first: [0, indeg) selects in-edge i, indeg selects "no live in-edge".
  std::vector<uint32_t> choice(n_, 0);
  std::vector<LiveEdge> live;
  live.reserve(n_);
  std::vector<uint64_t> closure(n_);
  while (true) {
    if (GuardShouldStop(options.guard)) {
      stop_ = GuardReason(options.guard);
      return;
    }
    double prob = 1;
    for (NodeId v = 0; v < n_ && prob > 0; ++v) {
      const auto weights = graph.InWeights(v);
      prob *= choice[v] < weights.size() ? weights[choice[v]] : residual[v];
    }
    if (prob > 0) {
      live.clear();
      for (NodeId v = 0; v < n_; ++v) {
        const auto sources = graph.InSources(v);
        if (choice[v] < sources.size()) {
          live.push_back(LiveEdge{sources[choice[v]], v});
        }
      }
      ComputeClosure(n_, live, closure.data());
      AddClass(closure.data(), prob, options.max_table_bytes);
      if (stop_ != StopReason::kNone) return;
    }
    NodeId v = 0;
    while (v < n_) {
      if (++choice[v] <= graph.InDegree(v)) break;
      choice[v] = 0;
      ++v;
    }
    if (v == n_) break;
  }
}

double ExactSpreadOracle::Spread(std::span<const NodeId> seeds) const {
  return SpreadWithGains(seeds, n_, nullptr);
}

double ExactSpreadOracle::SpreadWithGains(std::span<const NodeId> seeds,
                                          NodeId first,
                                          std::vector<double>* gains) const {
  IMBENCH_CHECK(ok());
  const size_t cand = (gains != nullptr && first < n_) ? n_ - first : 0;
  if (gains != nullptr) gains->assign(cand, 0.0);
  const uint64_t classes = weights_.size();
  if (classes == 0) return 0.0;
  const uint64_t blocks = (classes + kEvalBlockClasses - 1) / kEvalBlockClasses;
  std::vector<double> block_sums(blocks, 0.0);
  std::vector<double> block_gains(blocks * cand, 0.0);

  auto eval_block = [&](uint64_t b) {
    const uint64_t begin = b * kEvalBlockClasses;
    const uint64_t end = std::min<uint64_t>(classes, begin + kEvalBlockClasses);
    double sum = 0;
    double* g = cand > 0 ? &block_gains[b * cand] : nullptr;
    for (uint64_t j = begin; j < end; ++j) {
      const uint64_t* closure = &closures_[j * n_];
      uint64_t covered = 0;
      for (const NodeId s : seeds) covered |= closure[s];
      const double w = weights_[j];
      sum += w * std::popcount(covered);
      for (size_t c = 0; c < cand; ++c) {
        g[c] += w * std::popcount(closure[first + c] & ~covered);
      }
    }
    block_sums[b] = sum;
  };

  fanout_.pool->ParallelFor(blocks, fanout_.lanes,
                            [&](uint64_t b, uint32_t) { eval_block(b); });

  double total = 0;
  for (uint64_t b = 0; b < blocks; ++b) total += block_sums[b];
  for (size_t c = 0; c < cand; ++c) {
    double g = 0;
    for (uint64_t b = 0; b < blocks; ++b) g += block_gains[b * cand + c];
    (*gains)[c] = g;
  }
  return total;
}

namespace {

// a < b lexicographically; both ascending id lists of equal length.
bool LexSmaller(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// Shared search state for one BranchAndBoundOptimum() call.
struct BnbSearcher {
  BnbSearcher(const ExactSpreadOracle& oracle, const ExactOptOptions& options,
              uint32_t k, ExactOptResult& result)
      : oracle(oracle),
        options(options),
        k(k),
        n(oracle.num_nodes()),
        result(result) {}

  const ExactSpreadOracle& oracle;
  const ExactOptOptions& options;
  uint32_t k;
  NodeId n;
  ExactOptResult& result;

  std::vector<NodeId> current;
  std::vector<double> gains;
  std::vector<double> top;  // scratch for the top-(k − |S|) gain sum
  double incumbent_value = 0;
  std::vector<NodeId> incumbent_seeds;
  double gap = 0;  // current doubling pass: prune against incumbent + gap
  bool out_of_budget = false;
  bool guard_tripped = false;

  bool Interrupted() const { return out_of_budget || guard_tripped; }

  // Sum of the `need` largest candidate gains, added largest-first so the
  // summation order is a deterministic function of the gain values alone.
  double TopGainSum(uint32_t need) {
    top.assign(gains.begin(), gains.end());
    const size_t take = std::min<size_t>(need, top.size());
    std::partial_sort(top.begin(), top.begin() + take, top.end(),
                      std::greater<double>());
    double sum = 0;
    for (size_t i = 0; i < take; ++i) sum += top[i];
    return sum;
  }

  void OfferIncumbent(const std::vector<NodeId>& seeds, double value) {
    if (value > incumbent_value ||
        (value == incumbent_value &&
         (incumbent_seeds.size() != k || LexSmaller(seeds, incumbent_seeds)))) {
      incumbent_value = value;
      incumbent_seeds = seeds;
    }
  }

  void Dfs(NodeId next) {
    if (Interrupted()) return;
    TraceAdd(options.trace, TraceCounter::kGuardPolls);
    if (GuardShouldStop(options.guard)) {
      guard_tripped = true;
      return;
    }
    if (options.node_budget != 0 &&
        result.nodes_expanded >= options.node_budget) {
      out_of_budget = true;
      return;
    }
    ++result.nodes_expanded;
    TraceAdd(options.trace, TraceCounter::kBnbNodesExpanded);

    const uint32_t need = k - static_cast<uint32_t>(current.size());
    if (need == 0) {
      OfferIncumbent(current, oracle.Spread(current));
      return;
    }
    const double base = oracle.SpreadWithGains(current, next, &gains);
    TraceAdd(options.trace, TraceCounter::kNodeLookups, n - next);
    const double bound = base + TopGainSum(need);
    if (current.empty()) {
      result.root_upper_bound = std::max(result.root_upper_bound, bound);
    }
    if (bound + kBoundSlack < incumbent_value + gap) {
      ++result.nodes_pruned;
      TraceAdd(options.trace, TraceCounter::kBnbPruned);
      return;
    }
    // Include/exclude in lexicographic order: the first candidate kept is
    // the smallest id, so ties resolve to the lex-min optimum exactly as
    // the exhaustive enumeration does.
    for (NodeId v = next; v + need <= n; ++v) {
      current.push_back(v);
      Dfs(v + 1);
      current.pop_back();
      if (Interrupted()) return;
    }
  }
};

ExactOptResult StoppedResult(StopReason stop, uint64_t classes) {
  ExactOptResult result;
  result.status = ExactOptStatus::kStopped;
  result.stop = stop;
  result.closure_classes = classes;
  return result;
}

}  // namespace

ExactOptResult ExhaustiveOptimum(const Graph& graph, DiffusionKind kind,
                                 uint32_t k, const ExactOptOptions& options) {
  const NodeId n = graph.num_nodes();
  IMBENCH_CHECK(k <= n);
  Span span(options.trace, "exact_opt");
  ExactSpreadOracle oracle(graph, kind, options);
  if (!oracle.ok()) return StoppedResult(oracle.stop(), 0);

  ExactOptResult result;
  result.closure_classes = oracle.num_classes();
  if (k == 0) return result;

  Span search(options.trace, "exhaustive_search");
  std::vector<NodeId> current;
  bool interrupted = false;
  auto recurse = [&](auto&& self, NodeId next) -> void {
    if (interrupted) return;
    if (current.size() == k) {
      TraceAdd(options.trace, TraceCounter::kGuardPolls);
      if (GuardShouldStop(options.guard)) {
        result.status = ExactOptStatus::kStopped;
        result.stop = GuardReason(options.guard);
        interrupted = true;
        return;
      }
      if (options.node_budget != 0 &&
          result.nodes_expanded >= options.node_budget) {
        result.status = ExactOptStatus::kNodeBudget;
        interrupted = true;
        return;
      }
      ++result.nodes_expanded;
      TraceAdd(options.trace, TraceCounter::kBnbNodesExpanded);
      const double spread = oracle.Spread(current);
      if (spread > result.spread) {
        result.spread = spread;
        result.seeds = current;
      }
      return;
    }
    if (n - next < k - current.size()) return;
    for (NodeId v = next; v < n; ++v) {
      current.push_back(v);
      self(self, v + 1);
      current.pop_back();
      if (interrupted) return;
    }
  };
  recurse(recurse, 0);
  return result;
}

ExactOptResult BranchAndBoundOptimum(const Graph& graph, DiffusionKind kind,
                                     uint32_t k,
                                     const ExactOptOptions& options) {
  const NodeId n = graph.num_nodes();
  IMBENCH_CHECK(k <= n);
  Span span(options.trace, "exact_opt");
  ExactSpreadOracle oracle(graph, kind, options);
  if (!oracle.ok()) return StoppedResult(oracle.stop(), 0);

  ExactOptResult result;
  result.closure_classes = oracle.num_classes();
  if (k == 0) return result;

  Span search(options.trace, "bnb_search");
  BnbSearcher searcher(oracle, options, k, result);

  // Greedy incumbent: k exact-marginal picks (smallest id among ties). Its
  // value is re-evaluated through the same Spread() path the leaves use, so
  // incumbent comparisons stay bitwise consistent with leaf evaluations.
  {
    std::vector<NodeId> greedy;
    std::vector<uint8_t> chosen(n, 0);
    std::vector<double> gains;
    for (uint32_t i = 0; i < k; ++i) {
      if (GuardShouldStop(options.guard)) break;
      oracle.SpreadWithGains(greedy, 0, &gains);
      TraceAdd(options.trace, TraceCounter::kNodeLookups, n);
      NodeId best = n;
      for (NodeId v = 0; v < n; ++v) {
        if (chosen[v]) continue;
        if (best == n || gains[v] > gains[best]) best = v;
      }
      IMBENCH_CHECK(best < n);
      chosen[best] = 1;
      greedy.push_back(best);
    }
    if (greedy.size() == k) {
      std::sort(greedy.begin(), greedy.end());
      searcher.incumbent_seeds = greedy;
      searcher.incumbent_value = oracle.Spread(greedy);
    }
  }

  // Root bound: σ(∅) = 0 plus the top-k single-node spreads.
  {
    searcher.current.clear();
    oracle.SpreadWithGains({}, 0, &searcher.gains);
    result.root_upper_bound = searcher.TopGainSum(k);
  }

  // Doubling search on the incumbent: geometric gap-halving passes prune
  // against incumbent + gap, cheaply tightening the incumbent toward the
  // optimum, then a final gap-0 pass proves (lex-min) optimality.
  std::vector<double> gaps;
  const double initial_gap = result.root_upper_bound - searcher.incumbent_value;
  for (uint32_t t = 1; t <= options.doubling_passes; ++t) {
    const double g = initial_gap / static_cast<double>(uint64_t{1} << t);
    if (g <= kBoundSlack) break;
    gaps.push_back(g);
  }
  gaps.push_back(0.0);

  for (const double gap : gaps) {
    if (GuardShouldStop(options.guard)) {
      searcher.guard_tripped = true;
      break;
    }
    searcher.gap = gap;
    searcher.current.clear();
    searcher.Dfs(0);
    if (searcher.Interrupted()) break;
  }

  result.seeds = searcher.incumbent_seeds;
  result.spread = searcher.incumbent_value;
  if (searcher.guard_tripped) {
    result.status = ExactOptStatus::kStopped;
    result.stop = GuardReason(options.guard);
  } else if (searcher.out_of_budget) {
    result.status = ExactOptStatus::kNodeBudget;
  }
  return result;
}

}  // namespace imbench
