#include <set>

#include <gtest/gtest.h>

#include "algorithms/pmc.h"
#include "algorithms/snapshots.h"
#include "algorithms/static_greedy.h"
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
  input.seed = 31;
  input.trace = trace;
  return input;
}

TEST(SnapshotTest, SampleRespectsProbabilities) {
  Graph g = testutil::PathGraph(3, 1.0);
  Rng rng(1);
  AdjScratch scratch;
  const Snapshot snap = SampleSnapshot(g, rng, scratch);
  EXPECT_EQ(snap.targets.size(), 2u);  // p = 1 keeps every edge
  EXPECT_EQ(snap.offsets.size(), 4u);

  Graph zero = testutil::PathGraph(3, 0.0);
  const Snapshot empty = SampleSnapshot(zero, rng, scratch);
  EXPECT_TRUE(empty.targets.empty());
}

TEST(SnapshotTest, EdgeRetentionRate) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignConstantWeights(g, 0.3);
  uint64_t kept = 0;
  const int rounds = 50;
  AdjScratch scratch;
  for (int i = 0; i < rounds; ++i) {
    Rng rng = Rng::ForStream(2, i);
    kept += SampleSnapshot(g, rng, scratch).targets.size();
  }
  const double rate = static_cast<double>(kept) /
                      (static_cast<double>(g.num_edges()) * rounds);
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(StaticGreedyTest, PicksTheHub) {
  Graph g = testutil::HubGraph();
  StaticGreedy sg(StaticGreedyOptions{100});
  Trace trace;
  const SelectionResult result = sg.Select(IcInput(g, 2, &trace));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(trace.Total(TraceCounter::kSnapshots), 100u);
}

TEST(StaticGreedyTest, RejectsLt) {
  StaticGreedy sg(StaticGreedyOptions{});
  EXPECT_TRUE(sg.Supports(DiffusionKind::kIndependentCascade));
  EXPECT_FALSE(sg.Supports(DiffusionKind::kLinearThreshold));
}

TEST(StaticGreedyTest, InternalEstimateTracksMcSpread) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignConstantWeights(g, 0.1);
  StaticGreedy sg(StaticGreedyOptions{250});
  const SelectionResult result = sg.Select(IcInput(g, 5, nullptr));
  const double mc =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, result.seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  EXPECT_NEAR(result.internal_spread_estimate, mc, 0.15 * mc + 1.0);
}

TEST(PmcTest, PicksTheHub) {
  Graph g = testutil::HubGraph();
  Pmc pmc(PmcOptions{100});
  Trace trace;
  const SelectionResult result = pmc.Select(IcInput(g, 2, &trace));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(trace.Total(TraceCounter::kSnapshots), 100u);
}

TEST(PmcTest, RejectsLt) {
  Pmc pmc(PmcOptions{});
  EXPECT_FALSE(pmc.Supports(DiffusionKind::kLinearThreshold));
}

TEST(PmcTest, AgreesWithStaticGreedyOnQuality) {
  // PMC's SCC contraction is exact: averaged reachability must match SG up
  // to snapshot sampling noise, so the selected spread should too.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignConstantWeights(g, 0.15);
  StaticGreedy sg(StaticGreedyOptions{200});
  Pmc pmc(PmcOptions{200});
  const auto sg_seeds = sg.Select(IcInput(g, 8, nullptr)).seeds;
  const auto pmc_seeds = pmc.Select(IcInput(g, 8, nullptr)).seeds;
  const double sg_spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, sg_seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  const double pmc_spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, pmc_seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  EXPECT_NEAR(sg_spread, pmc_spread,
              0.12 * std::max(sg_spread, pmc_spread) + 1.0);
}

TEST(PmcTest, HandlesCyclicSnapshots) {
  // A p=1 cycle collapses to one SCC; spread from any node is the whole
  // cycle and a single seed suffices.
  Graph g = Graph::FromArcs(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  AssignConstantWeights(g, 1.0);
  Pmc pmc(PmcOptions{10});
  const SelectionResult result = pmc.Select(IcInput(g, 2, nullptr));
  EXPECT_DOUBLE_EQ(result.internal_spread_estimate, 5.0);
}

TEST(PmcTest, DistinctSeeds) {
  Graph g = MakeDataset("hepph", DatasetScale::kTiny);
  AssignConstantWeights(g, 0.05);
  Pmc pmc(PmcOptions{50});
  const SelectionResult result = pmc.Select(IcInput(g, 10, nullptr));
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 10u);
}

}  // namespace
}  // namespace imbench
