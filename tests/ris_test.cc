#include "algorithms/ris.h"

#include <set>

#include <gtest/gtest.h>

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
  input.seed = 61;
  input.trace = trace;
  return input;
}

TEST(RisTest, PicksTheHub) {
  Graph g = testutil::HubGraph();
  Ris ris(RisOptions{});
  Trace trace;
  const SelectionResult result = ris.Select(
      InputFor(g, 1, &trace, DiffusionKind::kIndependentCascade));
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_GT(trace.Total(TraceCounter::kRrSets), 0u);
}

TEST(RisTest, BudgetControlsSampleCount) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  Trace small_trace, large_trace;
  RisOptions small_budget;
  small_budget.budget_multiplier = 4;
  RisOptions large_budget;
  large_budget.budget_multiplier = 64;
  Ris small(small_budget), large(large_budget);
  small.Select(
      InputFor(g, 5, &small_trace, DiffusionKind::kIndependentCascade));
  large.Select(
      InputFor(g, 5, &large_trace, DiffusionKind::kIndependentCascade));
  EXPECT_GT(large_trace.Total(TraceCounter::kRrSets),
            4 * small_trace.Total(TraceCounter::kRrSets));
}

TEST(RisTest, QualityComparableToRrSuccessors) {
  // RIS with a generous budget should be within a few percent of the same
  // max-cover machinery driven by TIM+/IMM sample sizes.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  Ris ris(RisOptions{});
  const SelectionResult result = ris.Select(
      InputFor(g, 10, nullptr, DiffusionKind::kIndependentCascade));
  const double spread =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, result.seeds,
                     testutil::SpreadOpts(2000, 1))
          .mean;
  EXPECT_GT(spread, 10.0);
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RisTest, WorksUnderLt) {
  Graph g = testutil::TwoStars(1.0);
  AssignLtUniform(g);
  Ris ris(RisOptions{});
  const SelectionResult result =
      ris.Select(InputFor(g, 2, nullptr, DiffusionKind::kLinearThreshold));
  const std::set<NodeId> seeds(result.seeds.begin(), result.seeds.end());
  EXPECT_TRUE(seeds.count(0) == 1);
  EXPECT_TRUE(seeds.count(4) == 1);
}

TEST(RisTest, TerminatesOnEdgelessGraph) {
  Graph g = Graph::FromArcs(5, {});
  Ris ris(RisOptions{});
  const SelectionResult result =
      ris.Select(InputFor(g, 2, nullptr, DiffusionKind::kIndependentCascade));
  EXPECT_EQ(result.seeds.size(), 2u);
}

TEST(RisTest, MemoryCapSetsOverBudget) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignConstantWeights(g, 0.3);
  RisOptions options;
  options.max_rr_entries = 10;
  Ris ris(options);
  const SelectionResult result =
      ris.Select(InputFor(g, 3, nullptr, DiffusionKind::kIndependentCascade));
  EXPECT_FALSE(result.complete());
  EXPECT_EQ(result.stop_reason, StopReason::kMemory);
}

}  // namespace
}  // namespace imbench
