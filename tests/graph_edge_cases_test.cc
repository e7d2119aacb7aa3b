// Edge-case and failure-injection tests for the graph substrate and the
// diffusion engine that the main suites don't reach.
#include <vector>

#include <gtest/gtest.h>

#include "diffusion/rr_sets.h"
#include "diffusion/spread.h"
#include "framework/registry.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

TEST(GraphEdgeCasesTest, BidirectionalCombinesWithDedup) {
  // Arc (0,1) given twice plus its reverse once: bidirection adds reverses
  // for every input arc, then dedup collapses (0,1)x2+... into
  // multiplicity-carrying edges.
  GraphOptions options;
  options.make_bidirectional = true;
  Graph g = Graph::FromArcs(2, {{0, 1}, {0, 1}, {1, 0}}, options);
  EXPECT_EQ(g.num_edges(), 2u);  // (0,1) and (1,0)
  EXPECT_TRUE(g.has_parallel_arcs());
  // (0,1): two originals + one reverse-of-(1,0) = 3; (1,0): 1 + 2 = 3.
  EXPECT_EQ(g.EdgeMultiplicity(0), 3u);
  EXPECT_EQ(g.EdgeMultiplicity(1), 3u);
}

TEST(GraphEdgeCasesTest, SingleNodeGraph) {
  Graph g = Graph::FromArcs(1, {});
  EXPECT_EQ(g.num_nodes(), 1u);
  CascadeContext ctx(1);
  Rng rng(1);
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng),
            1u);
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kLinearThreshold, seeds, rng),
            1u);
}

TEST(GraphEdgeCasesTest, SetWeightsTwiceKeepsMirrorConsistent) {
  Graph g = Graph::FromArcs(3, {{0, 2}, {1, 2}});
  g.SetWeights(std::vector<double>{0.2, 0.8});
  g.SetWeights(std::vector<double>{0.6, 0.4});
  const auto sources = g.InSources(2);
  const auto weights = g.InWeights(2);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_DOUBLE_EQ(weights[i], sources[i] == 0 ? 0.6 : 0.4);
  }
}

TEST(GraphEdgeCasesTest, EmptySeedSetSpreadIsZero) {
  Graph g = testutil::PathGraph(4, 1.0);
  const std::vector<NodeId> none;
  const SpreadEstimate est =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, none,
                     testutil::SpreadOpts(50, 1));
  EXPECT_DOUBLE_EQ(est.mean, 0.0);
}

TEST(GraphEdgeCasesTest, SeedingEveryNodeSpreadsToN) {
  Graph g = testutil::PathGraph(6, 0.0);
  std::vector<NodeId> all;
  for (NodeId v = 0; v < 6; ++v) all.push_back(v);
  const SpreadEstimate est =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, all,
                     testutil::SpreadOpts(20, 1));
  EXPECT_DOUBLE_EQ(est.mean, 6.0);
  EXPECT_DOUBLE_EQ(est.stddev, 0.0);
}

TEST(GraphEdgeCasesTest, RrSamplerDeterministicPerStream) {
  Graph g = testutil::TwoStars(0.5);
  RrSampler a(g, DiffusionKind::kIndependentCascade);
  RrSampler b(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> sa, sb;
  for (int i = 0; i < 50; ++i) {
    a.GenerateStream(91, i, sa);
    b.GenerateStream(91, i, sb);
    EXPECT_EQ(sa, sb);
  }
}

TEST(GraphEdgeCasesTest, LtWeightsOverOneStillTerminate) {
  // Failure injection: assigning IC-style constant weights that violate
  // the LT sum constraint must not hang or overflow — nodes simply
  // activate almost surely. Node 2 (in-degree 2) carries in-weight 1.8.
  Graph g = Graph::FromArcs(4, {{0, 2}, {1, 2}, {2, 3}});
  AssignConstantWeights(g, 0.9);
  EXPECT_FALSE(SatisfiesLtConstraint(g));
  CascadeContext ctx(g.num_nodes());
  Rng rng(5);
  const std::vector<NodeId> seeds = {0, 1};
  const NodeId spread =
      ctx.Simulate(g, DiffusionKind::kLinearThreshold, seeds, rng);
  // Both parents active: accumulated weight 1.8 >= any threshold, so node
  // 2 (and through it node 3 w.p. 0.9) must activate.
  EXPECT_GE(spread, 3u);
  EXPECT_LE(spread, g.num_nodes());
}

TEST(GraphEdgeCasesTest, ZeroWeightGraphRrSetsAreSingletons) {
  Graph g = testutil::TwoStars(0.0);
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> set;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    sampler.GenerateFromRoot(rng.NextU32(g.num_nodes()), rng, set);
    EXPECT_EQ(set.size(), 1u);
  }
}

TEST(GraphEdgeCasesTest, KEqualsNumNodes) {
  Graph g = testutil::TwoStars(0.5);
  SelectionInput input;
  input.graph = &g;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = g.num_nodes();
  input.seed = 1;
  // The cheapest techniques must handle k == n (every node a seed).
  for (const char* name : {"Degree", "IRIE", "IMRank1", "EaSyIM"}) {
    const auto algorithm = MakeAlgorithm(name, kDefaultParameter);
    const SelectionResult result = algorithm->Select(input);
    EXPECT_EQ(result.seeds.size(), g.num_nodes()) << name;
  }
}

}  // namespace
}  // namespace imbench
