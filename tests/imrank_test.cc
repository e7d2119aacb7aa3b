#include "algorithms/imrank.h"

#include <set>

#include <gtest/gtest.h>

#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "framework/trace.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

SelectionInput IcInput(const Graph& graph, uint32_t k, Trace* trace) {
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = k;
  input.seed = 47;
  input.trace = trace;
  return input;
}

TEST(ImRankTest, NamesReflectLfaDepth) {
  ImRankOptions o1;
  o1.l = 1;
  ImRankOptions o2;
  o2.l = 2;
  EXPECT_EQ(ImRank(o1).name(), "IMRank1");
  EXPECT_EQ(ImRank(o2).name(), "IMRank2");
}

TEST(ImRankTest, SupportsOnlyIcFamily) {
  ImRank imrank(ImRankOptions{});
  EXPECT_TRUE(imrank.Supports(DiffusionKind::kIndependentCascade));
  EXPECT_FALSE(imrank.Supports(DiffusionKind::kLinearThreshold));
}

TEST(ImRankTest, RanksHubFirst) {
  Graph g = testutil::HubGraph();
  ImRank imrank(ImRankOptions{});
  const SelectionResult result = imrank.Select(IcInput(g, 1, nullptr));
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(ImRankTest, FixedRoundsRunAllScoringRounds) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  ImRankOptions options;
  options.scoring_rounds = 7;
  ImRank imrank(options);
  Trace trace;
  imrank.Select(IcInput(g, 10, &trace));
  EXPECT_EQ(trace.Total(TraceCounter::kScoringRounds), 7u);
}

TEST(ImRankTest, DefectiveStoppingExitsEarly) {
  // Myth M7: the original top-k-set criterion typically stops within a
  // couple of rounds once the head of the ranking stabilizes.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  ImRankOptions options;
  options.scoring_rounds = 10;
  options.stopping = ImRankOptions::Stopping::kTopKSetUnchanged;
  ImRank defective(options);
  Trace defective_trace;
  defective.Select(IcInput(g, 50, &defective_trace));

  options.stopping = ImRankOptions::Stopping::kFixedRounds;
  ImRank corrected(options);
  Trace corrected_trace;
  corrected.Select(IcInput(g, 50, &corrected_trace));

  EXPECT_EQ(corrected_trace.Total(TraceCounter::kScoringRounds), 10u);
  EXPECT_LT(defective_trace.Total(TraceCounter::kScoringRounds),
            corrected_trace.Total(TraceCounter::kScoringRounds));
}

TEST(ImRankTest, SeedsAreDistinctAndValid) {
  Graph g = MakeDataset("hepph", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  ImRank imrank(ImRankOptions{});
  const SelectionResult result = imrank.Select(IcInput(g, 20, nullptr));
  ASSERT_EQ(result.seeds.size(), 20u);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const NodeId s : result.seeds) EXPECT_LT(s, g.num_nodes());
}

TEST(ImRankTest, BeatsReverseDegreeOrdering) {
  // Sanity on quality: the refined ranking must clearly beat picking the
  // k *lowest* weighted-degree nodes.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  ImRank imrank(ImRankOptions{});
  const SelectionResult result = imrank.Select(IcInput(g, 10, nullptr));
  const double spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, result.seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;

  // Bottom-degree baseline.
  std::vector<std::pair<uint32_t, NodeId>> by_degree;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    by_degree.emplace_back(g.OutDegree(v), v);
  }
  std::sort(by_degree.begin(), by_degree.end());
  std::vector<NodeId> bottom;
  for (int i = 0; i < 10; ++i) bottom.push_back(by_degree[i].second);
  const double bottom_spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, bottom,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  EXPECT_GT(spread, bottom_spread);
}

TEST(ImRankTest, DepthTwoUsesTwoSweepsPerRound) {
  Graph g = testutil::TwoStars(0.5);
  ImRankOptions options;
  options.l = 2;
  ImRank imrank(options);
  const SelectionResult result = imrank.Select(IcInput(g, 2, nullptr));
  const std::set<NodeId> seeds(result.seeds.begin(), result.seeds.end());
  EXPECT_TRUE(seeds.count(0) == 1);
  EXPECT_TRUE(seeds.count(4) == 1);
}

}  // namespace
}  // namespace imbench
