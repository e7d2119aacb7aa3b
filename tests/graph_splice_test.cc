// Differential test of the mutation publish: a successor graph spliced by
// Graph::WithArcs (through EpochGraphStore, which sorts and deduplicates a
// call's arcs) must equal a from-scratch Graph::FromArcs + SetWeights over
// the same arc list, array for array — the ids, weights and
// multiplicities every sampler and warm-corpus repair reads.
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"

namespace imbench {
namespace {

// (source, target) -> (weight, multiplicity): the graph as a weighted arc
// list, the form a rebuild starts from.
using ArcMap =
    std::map<std::pair<NodeId, NodeId>, std::pair<double, uint32_t>>;

ArcMap ArcsOf(const Graph& g) {
  ArcMap arcs;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto targets = g.OutTargets(u);
    for (size_t i = 0; i < targets.size(); ++i) {
      const EdgeId e = g.OutEdgeBase(u) + i;
      arcs[{u, targets[i]}] = {g.weights()[e], g.EdgeMultiplicity(e)};
    }
  }
  return arcs;
}

// The reference successor: FromArcs over the arc list with parallel arcs
// re-expanded, then SetWeights in (source, target) order.
Graph Rebuild(NodeId n, const ArcMap& arcs) {
  std::vector<Arc> shape;
  std::vector<double> weights;
  for (const auto& [pair, value] : arcs) {
    for (uint32_t c = 0; c < value.second; ++c) {
      shape.push_back(Arc{pair.first, pair.second});
    }
    weights.push_back(value.first);
  }
  Graph g = Graph::FromArcs(n, std::move(shape));
  g.SetWeights(weights);
  return g;
}

// Every CSR array, FindEdge over all pairs, InEdgeIds and multiplicities.
void ExpectSameGraph(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.has_parallel_arcs(), want.has_parallel_arcs());
  // The splice sizes every array exactly; FromArcs keeps the growth slack
  // of a multigraph's multiplicity vector.
  EXPECT_LE(got.MemoryBytes(), want.MemoryBytes());
  const NodeId n = got.num_nodes();
  auto same = [](auto a, auto b) {
    return std::vector(a.begin(), a.end()) == std::vector(b.begin(), b.end());
  };
  for (NodeId v = 0; v < n; ++v) {
    SCOPED_TRACE(testing::Message() << "node " << v);
    EXPECT_EQ(got.OutEdgeBase(v), want.OutEdgeBase(v));
    EXPECT_TRUE(same(got.OutTargets(v), want.OutTargets(v)));
    EXPECT_TRUE(same(got.OutWeights(v), want.OutWeights(v)));
    EXPECT_TRUE(same(got.InSources(v), want.InSources(v)));
    EXPECT_TRUE(same(got.InWeights(v), want.InWeights(v)));
    EXPECT_TRUE(same(got.InEdgeIds(v), want.InEdgeIds(v)));
    for (NodeId w = 0; w < n; ++w) {
      ASSERT_EQ(got.FindEdge(v, w), want.FindEdge(v, w)) << v << "->" << w;
    }
  }
  EXPECT_TRUE(same(got.weights(), want.weights()));
  for (EdgeId e = 0; e < got.num_edges(); ++e) {
    ASSERT_EQ(got.EdgeMultiplicity(e), want.EdgeMultiplicity(e)) << e;
  }
}

// A random mutation of 1-6 arcs, biased towards the cases a splice can get
// wrong: end nodes 0 and n-1, arcs that already exist, and the same arc
// twice in one call (the later weight wins).
std::vector<WeightedArc> RandomArcs(const Graph& g, Rng& rng) {
  const NodeId n = g.num_nodes();
  auto node = [&] {
    switch (rng.NextU32(4)) {
      case 0:
        return NodeId{0};
      case 1:
        return n - 1;
      default:
        return rng.NextU32(n);
    }
  };
  std::vector<WeightedArc> arcs;
  const uint32_t count = 1 + rng.NextU32(6);
  while (arcs.size() < count) {
    WeightedArc arc{node(), node(), rng.NextDouble()};
    const std::span<const NodeId> targets = g.OutTargets(arc.source);
    if (rng.NextU32(3) == 0 && !targets.empty()) {
      arc.target = targets[rng.NextU32(static_cast<uint32_t>(targets.size()))];
    }
    if (arc.source == arc.target) continue;
    arcs.push_back(arc);
    if (rng.NextU32(4) == 0) {
      arcs.push_back(WeightedArc{arc.source, arc.target, rng.NextDouble()});
    }
  }
  return arcs;
}

void ApplyToReference(std::span<const WeightedArc> arcs, ArcMap* reference) {
  for (const WeightedArc& a : arcs) {
    auto [it, inserted] =
        reference->try_emplace({a.source, a.target}, a.weight, 1u);
    if (!inserted) it->second.first = a.weight;
  }
}

void RunSequence(Graph initial, uint64_t seed, int steps) {
  const NodeId n = initial.num_nodes();
  ArcMap reference = ArcsOf(initial);
  EpochGraphStore store(std::move(initial));
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const EpochGraphStore::Snapshot snapshot = store.Current();
    const Graph& current = *snapshot.graph;
    std::vector<WeightedArc> arcs = RandomArcs(current, rng);
    if (step % 3 == 2) {
      // A weight update: existing arcs only.
      std::erase_if(arcs, [&](const WeightedArc& a) {
        return current.FindEdge(a.source, a.target) == kInvalidEdge;
      });
      if (arcs.empty()) continue;
      store.UpdateWeights(arcs);
    } else {
      store.AddEdges(arcs);
    }
    ApplyToReference(arcs, &reference);
    ExpectSameGraph(*store.Current().graph, Rebuild(n, reference));
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(GraphSpliceTest, MatchesRebuildOnBarabasiAlbert) {
  Rng graph_rng(3);
  EdgeList list = BarabasiAlbert(40, 3, graph_rng);
  Graph g = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  AssignWeightedCascade(g);
  ASSERT_FALSE(g.has_parallel_arcs());
  RunSequence(std::move(g), /*seed=*/11, /*steps=*/60);
}

TEST(GraphSpliceTest, MatchesRebuildOnMultigraphWithIsolatedEnds) {
  // Parallel arcs collapse (0->1 three times, 5->2 twice). Node 0 has no
  // in-edges, node 7 (= n-1) no out-edges, node 6 no edges at all.
  Graph g = Graph::FromArcs(8, {Arc{0, 1}, Arc{0, 1}, Arc{0, 1}, Arc{1, 2},
                                Arc{5, 2}, Arc{5, 2}, Arc{2, 7}, Arc{3, 4},
                                Arc{4, 7}, Arc{1, 3}});
  ASSERT_TRUE(g.has_parallel_arcs());
  std::vector<double> weights(g.num_edges());
  for (size_t e = 0; e < weights.size(); ++e) weights[e] = 0.05 * (e + 1);
  g.SetWeights(weights);
  RunSequence(std::move(g), /*seed=*/12, /*steps=*/60);
}

TEST(GraphSpliceTest, EmptyGraphGrowsFromNothing) {
  RunSequence(Graph::FromArcs(5, {}), /*seed=*/13, /*steps=*/30);
}

TEST(GraphSpliceTest, EditsMixInsertsAndUpdatesAtOneSource) {
  // Inserts before, between and after 2's existing targets, plus an update
  // of an existing arc, in one sorted edit list.
  Graph g = Graph::FromArcs(6, {Arc{2, 1}, Arc{2, 4}, Arc{0, 2}, Arc{4, 2}});
  g.SetWeights(std::vector<double>{0.1, 0.2, 0.3, 0.4});
  ArcMap reference = ArcsOf(g);
  const std::vector<WeightedArc> edits = {
      {2, 0, 0.5}, {2, 3, 0.6}, {2, 4, 0.7}, {2, 5, 0.8}, {3, 2, 0.9}};
  ApplyToReference(edits, &reference);
  ExpectSameGraph(g.WithArcs(edits), Rebuild(6, reference));
}

}  // namespace
}  // namespace imbench
