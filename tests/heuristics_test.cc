#include "algorithms/heuristics.h"

#include <set>

#include <gtest/gtest.h>

#include "algorithms/irie.h"
#include "algorithms/easyim.h"
#include "framework/datasets.h"
#include "framework/trace.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

SelectionInput IcInput(const Graph& graph, uint32_t k) {
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = k;
  input.seed = 53;
  return input;
}

TEST(RankByScoreTest, DescendingWithIdTieBreak) {
  const std::vector<double> score = {1.0, 3.0, 3.0, 0.5};
  const std::vector<NodeId> order = RankByScore(score);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 2, 0, 3}));
}

TEST(DegreeTest, PicksHighestOutDegrees) {
  Graph g = testutil::TwoStars(1.0);
  DegreeHeuristic degree;
  const SelectionResult result = degree.Select(IcInput(g, 2));
  EXPECT_EQ(result.seeds[0], 0u);  // degree 3
  EXPECT_EQ(result.seeds[1], 4u);  // degree 2
}

TEST(DegreeDiscountTest, DiscountsNeighborsOfSeeds) {
  // 0 and 1 both have degree 3, but 1's targets overlap 0's star:
  // after picking 0, node 1 gets discounted below independent node 4.
  std::vector<Arc> arcs = {{0, 2}, {0, 3}, {0, 1}, {1, 2}, {1, 3}, {1, 0},
                           {4, 5}, {4, 6}, {4, 7}};
  Graph g = Graph::FromArcs(8, arcs);
  AssignConstantWeights(g, 0.1);
  DegreeDiscount dd(DegreeDiscountOptions{0.1});
  const SelectionResult result = dd.Select(IcInput(g, 2));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 4u);
}

TEST(DegreeDiscountTest, RejectsLt) {
  DegreeDiscount dd(DegreeDiscountOptions{});
  EXPECT_FALSE(dd.Supports(DiffusionKind::kLinearThreshold));
}

TEST(PageRankTest, InfluenceSourceOutranksSink) {
  // 0 -> 1 -> 2: under reverse-graph PageRank the source 0 accumulates the
  // most rank (it can influence everyone downstream).
  Graph g = testutil::PathGraph(3, 1.0);
  PageRankHeuristic pr(PageRankOptions{});
  const SelectionResult result = pr.Select(IcInput(g, 1));
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(PageRankTest, ReturnsKDistinctSeeds) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  PageRankHeuristic pr(PageRankOptions{});
  const SelectionResult result = pr.Select(IcInput(g, 15));
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 15u);
}

TEST(IrieTest, PicksTheHub) {
  Graph g = testutil::HubGraph();
  Irie irie(IrieOptions{});
  const SelectionResult result = irie.Select(IcInput(g, 1));
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(IrieTest, ApDiscountAvoidsCoveredStar) {
  // After seeding hub 0, IRIE's AP estimation must discount 0's children
  // and pick the second hub.
  Graph g = testutil::TwoStars(0.9);
  Irie irie(IrieOptions{});
  const SelectionResult result = irie.Select(IcInput(g, 2));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 4u);
}

TEST(IrieTest, RejectsLt) {
  Irie irie(IrieOptions{});
  EXPECT_FALSE(irie.Supports(DiffusionKind::kLinearThreshold));
}

TEST(EasyImTest, PicksTheHubWithoutSimulations) {
  Graph g = testutil::HubGraph();
  EasyImOptions options;
  options.simulations = 0;  // pure path-score argmax
  EasyIm easyim(options);
  const SelectionResult result = easyim.Select(IcInput(g, 1));
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(EasyImTest, SpanCountDoesNotGrowWithK) {
  // Every span a traced run records sits inside the measured peak heap,
  // so the count must not grow with the seed budget.
  Graph g = testutil::PathGraph(12, 0.5);
  EasyIm easyim(EasyImOptions{});
  size_t spans[2] = {0, 0};
  const uint32_t ks[2] = {1, 10};
  for (int i = 0; i < 2; ++i) {
    SelectionInput input = IcInput(g, ks[i]);
    Trace trace;
    input.trace = &trace;
    EXPECT_EQ(easyim.Select(input).seeds.size(), ks[i]);
    EXPECT_EQ(trace.Total(TraceCounter::kScoringRounds), ks[i]);
    spans[i] = trace.spans().size();
  }
  EXPECT_EQ(spans[0], spans[1]);
}

TEST(EasyImTest, McValidationCountsSimulations) {
  Graph g = testutil::TwoStars(0.8);
  EasyImOptions options;
  options.simulations = 25;
  EasyIm easyim(options);
  SelectionInput input = IcInput(g, 2);
  Trace trace;
  input.trace = &trace;
  const SelectionResult result = easyim.Select(input);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_GT(trace.Total(TraceCounter::kSimulations), 0u);
  EXPECT_GT(trace.Total(TraceCounter::kScoringRounds), 0u);
}

TEST(EasyImTest, WorksUnderLt) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  EasyIm easyim(EasyImOptions{});
  SelectionInput input = IcInput(g, 5);
  input.diffusion = DiffusionKind::kLinearThreshold;
  const SelectionResult result = easyim.Select(input);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(EasyImTest, SeedsExcludedFromLaterScores) {
  // Both hubs must be found even though star-0 children outnumber hub 4's.
  Graph g = testutil::TwoStars(1.0);
  EasyImOptions options;
  options.simulations = 0;
  EasyIm easyim(options);
  const SelectionResult result = easyim.Select(IcInput(g, 2));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 4u);
}

}  // namespace
}  // namespace imbench
