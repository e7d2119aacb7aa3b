#include "graph/graph.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace imbench {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g = Graph::FromArcs(3, {});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.OutDegree(0), 0u);
  EXPECT_EQ(g.InDegree(2), 0u);
}

TEST(GraphTest, BasicCsr) {
  Graph g = Graph::FromArcs(4, {{0, 1}, {0, 2}, {1, 2}, {3, 0}});
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 1u);
  EXPECT_EQ(g.InDegree(2), 2u);
  EXPECT_EQ(g.InDegree(3), 0u);

  const auto out0 = g.OutTargets(0);
  EXPECT_EQ(std::vector<NodeId>(out0.begin(), out0.end()),
            (std::vector<NodeId>{1, 2}));
  const auto in2 = g.InSources(2);
  std::vector<NodeId> sources(in2.begin(), in2.end());
  std::sort(sources.begin(), sources.end());
  EXPECT_EQ(sources, (std::vector<NodeId>{0, 1}));
}

TEST(GraphTest, BidirectionalDoublesArcs) {
  GraphOptions options;
  options.make_bidirectional = true;
  Graph g = Graph::FromArcs(3, {{0, 1}, {1, 2}}, options);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(1), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
}

TEST(GraphTest, SelfLoopsDropped) {
  Graph g = Graph::FromArcs(2, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphTest, ParallelArcsDeduplicatedWithMultiplicity) {
  Graph g = Graph::FromArcs(3, {{0, 1}, {0, 1}, {0, 1}, {0, 2}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_parallel_arcs());
  // Edge ids follow the sorted (source, target) order: (0,1) then (0,2).
  EXPECT_EQ(g.EdgeMultiplicity(0), 3u);
  EXPECT_EQ(g.EdgeMultiplicity(1), 1u);
}

TEST(GraphTest, NoMultiplicityStorageWithoutParallelArcs) {
  Graph g = Graph::FromArcs(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(g.has_parallel_arcs());
  EXPECT_EQ(g.EdgeMultiplicity(0), 1u);
}

TEST(GraphTest, SetWeightsMirrorsIntoReverseCsr) {
  Graph g = Graph::FromArcs(3, {{0, 2}, {1, 2}});
  g.SetWeights(std::vector<double>{0.25, 0.75});
  const auto sources = g.InSources(2);
  const auto weights = g.InWeights(2);
  ASSERT_EQ(sources.size(), 2u);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_DOUBLE_EQ(weights[i], sources[i] == 0 ? 0.25 : 0.75);
  }
  EXPECT_DOUBLE_EQ(g.InWeightSum(2), 1.0);
  EXPECT_DOUBLE_EQ(g.InWeightSum(0), 0.0);
}

TEST(GraphTest, InEdgeIdsIndexForwardWeights) {
  Graph g = Graph::FromArcs(4, {{0, 3}, {1, 3}, {2, 3}});
  g.SetWeights(std::vector<double>{0.1, 0.2, 0.3});
  const auto ids = g.InEdgeIds(3);
  const auto weights = g.InWeights(3);
  ASSERT_EQ(ids.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_DOUBLE_EQ(g.weights()[ids[i]], weights[i]);
  }
}

TEST(GraphTest, CloneIsDeepAndEqual) {
  Graph g = Graph::FromArcs(3, {{0, 1}, {1, 2}});
  g.SetWeights(std::vector<double>{0.5, 0.6});
  Graph copy = g.Clone();
  EXPECT_EQ(copy.num_nodes(), g.num_nodes());
  EXPECT_EQ(copy.num_edges(), g.num_edges());
  copy.SetWeights(std::vector<double>{0.1, 0.1});
  EXPECT_DOUBLE_EQ(g.weights()[0], 0.5);  // original untouched
}

// A graph without parallel arcs holds no multiplicity buffer, so FromArcs
// leaves nothing behind that an exact-capacity Clone would drop.
TEST(GraphTest, FromArcsWithoutParallelArcsKeepsNoDeadCapacity) {
  Graph g = Graph::FromArcs(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  ASSERT_FALSE(g.has_parallel_arcs());
  EXPECT_EQ(g.MemoryBytes(), g.Clone().MemoryBytes());
}

TEST(GraphTest, MemoryBytesPositive) {
  Graph g = Graph::FromArcs(3, {{0, 1}, {1, 2}});
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphDeathTest, OutOfRangeArcAborts) {
  EXPECT_DEATH(Graph::FromArcs(2, {{0, 5}}), "out of range");
}

}  // namespace
}  // namespace imbench
