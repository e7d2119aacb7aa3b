#include <set>

#include <gtest/gtest.h>

#include "algorithms/imm.h"
#include "algorithms/tim_plus.h"
#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "framework/trace.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

SelectionInput InputFor(const Graph& graph, uint32_t k, Trace* trace,
                        DiffusionKind kind) {
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = kind;
  input.k = k;
  input.seed = 23;
  input.trace = trace;
  return input;
}

TEST(TimPlusTest, PicksTheHubUnderIc) {
  Graph g = testutil::HubGraph();
  TimPlus tim(TimPlusOptions{});
  Trace trace;
  const SelectionResult result = tim.Select(
      InputFor(g, 1, &trace, DiffusionKind::kIndependentCascade));
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_GT(trace.Total(TraceCounter::kRrSets), 0u);
  EXPECT_TRUE(result.complete());
}

TEST(TimPlusTest, ExtrapolatedEstimateWithinGraphBounds) {
  Graph g = testutil::TwoStars(0.7);
  TimPlus tim(TimPlusOptions{});
  const SelectionResult result =
      tim.Select(InputFor(g, 2, nullptr, DiffusionKind::kIndependentCascade));
  EXPECT_GE(result.internal_spread_estimate, 2.0);
  EXPECT_LE(result.internal_spread_estimate, 7.0);
}

TEST(TimPlusTest, MemoryBudgetTriggersOverBudgetFlag) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignConstantWeights(g, 0.2);
  TimPlusOptions options;
  options.max_rr_entries = 50;  // absurdly small
  TimPlus tim(options);
  const SelectionResult result =
      tim.Select(InputFor(g, 5, nullptr, DiffusionKind::kIndependentCascade));
  EXPECT_EQ(result.stop_reason, StopReason::kMemory);
  EXPECT_TRUE(tim.last_run_over_budget());
  EXPECT_EQ(result.seeds.size(), 5u);  // still returns best-effort seeds
}

TEST(ImmTest, PicksTheHubUnderIc) {
  Graph g = testutil::HubGraph();
  Imm imm(ImmOptions{});
  Trace trace;
  const SelectionResult result = imm.Select(
      InputFor(g, 1, &trace, DiffusionKind::kIndependentCascade));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_GT(trace.Total(TraceCounter::kRrSets), 0u);
}

TEST(ImmTest, WorksUnderLt) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  Imm imm(ImmOptions{0.3});
  const SelectionResult result =
      imm.Select(InputFor(g, 10, nullptr, DiffusionKind::kLinearThreshold));
  EXPECT_EQ(result.seeds.size(), 10u);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(ImmTest, LargerEpsilonUsesFewerRrSets) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  Trace tight, loose;
  Imm imm_tight(ImmOptions{0.1});
  Imm imm_loose(ImmOptions{0.5});
  imm_tight.Select(InputFor(g, 5, &tight, DiffusionKind::kIndependentCascade));
  imm_loose.Select(InputFor(g, 5, &loose, DiffusionKind::kIndependentCascade));
  EXPECT_GT(tight.Total(TraceCounter::kRrSets),
            loose.Total(TraceCounter::kRrSets));
}

TEST(RrAlgorithmsTest, TimAndImmAgreeOnQuality) {
  // The seeds need not be identical, but the MC-evaluated spreads should
  // be close — both carry the same approximation guarantee.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  TimPlus tim(TimPlusOptions{0.2});
  Imm imm(ImmOptions{0.2});
  const auto tim_seeds =
      tim.Select(InputFor(g, 10, nullptr, DiffusionKind::kIndependentCascade))
          .seeds;
  const auto imm_seeds =
      imm.Select(InputFor(g, 10, nullptr, DiffusionKind::kIndependentCascade))
          .seeds;
  const double tim_spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, tim_seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  const double imm_spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, imm_seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  EXPECT_NEAR(tim_spread, imm_spread, 0.15 * std::max(tim_spread, imm_spread));
}

TEST(RrAlgorithmsTest, ExtrapolatedSpreadExceedsMcSpread) {
  // Myth M4: the coverage-extrapolated spread over-estimates the true one.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  Imm imm(ImmOptions{0.5});
  const SelectionResult result = imm.Select(
      InputFor(g, 10, nullptr, DiffusionKind::kIndependentCascade));
  const double mc_spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, result.seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  EXPECT_GE(result.internal_spread_estimate, mc_spread * 0.95);
}

}  // namespace
}  // namespace imbench
