#include "framework/im_framework.h"

#include <gtest/gtest.h>

#include "framework/datasets.h"
#include "graph/weights.h"

namespace imbench {
namespace {

Graph WcGraph() {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  return g;
}

CellOptions Options(uint32_t simulations) {
  CellOptions options;
  options.evaluation_simulations = simulations;
  return options;
}

TEST(ImFrameworkTest, ParameterFreeTechniqueRunsOnce) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  const AlgorithmSpec* spec = FindAlgorithm("LDAG");
  ASSERT_NE(spec, nullptr);
  const FrameworkResult result = RunImFramework(
      *spec, g, DiffusionKind::kLinearThreshold, 5, Options(300));
  EXPECT_EQ(result.trials.size(), 1u);
  EXPECT_EQ(result.chosen.cell.seeds.size(), 5u);
  EXPECT_GT(result.chosen.cell.spread.mean, 0.0);
}

TEST(ImFrameworkTest, ChosenParameterComesFromSpectrum) {
  Graph g = WcGraph();
  const AlgorithmSpec* spec = FindAlgorithm("IMM");
  const FrameworkResult result = RunImFramework(
      *spec, g, DiffusionKind::kIndependentCascade, 5, Options(300));
  bool found = false;
  for (const double p : spec->parameter_spectrum) {
    found |= (p == result.chosen.parameter);
  }
  EXPECT_TRUE(found);
  EXPECT_GE(result.trials.size(), 1u);
  EXPECT_LE(result.trials.size(), spec->parameter_spectrum.size());
}

TEST(ImFrameworkTest, ConvergencePrefersCheaperParameters) {
  // IMM's quality on a tiny WC graph is flat across ε, so the framework
  // should walk well past the most expensive setting.
  Graph g = WcGraph();
  const AlgorithmSpec* spec = FindAlgorithm("IMM");
  const FrameworkResult result = RunImFramework(
      *spec, g, DiffusionKind::kIndependentCascade, 5, Options(500));
  EXPECT_GT(result.chosen.parameter, spec->parameter_spectrum.front());
}

TEST(ImFrameworkTest, TrialsRecordSelectionTimes) {
  Graph g = WcGraph();
  const AlgorithmSpec* spec = FindAlgorithm("EaSyIM");
  const FrameworkResult result = RunImFramework(
      *spec, g, DiffusionKind::kIndependentCascade, 3, Options(200));
  for (const ParameterTrial& trial : result.trials) {
    EXPECT_GE(trial.cell.select_seconds, 0.0);
    EXPECT_EQ(trial.cell.seeds.size(), 3u);
    EXPECT_EQ(trial.cell.spread.simulations, 200u);
  }
}

TEST(ImFrameworkTest, TrialsRecordPeakHeap) {
  // Every trial is metered like a workbench cell, so a real technique's
  // trials carry its working memory (IMM holds an RR corpus).
  Graph g = WcGraph();
  const AlgorithmSpec* spec = FindAlgorithm("IMM");
  const FrameworkResult result = RunImFramework(
      *spec, g, DiffusionKind::kIndependentCascade, 5, Options(200));
  ASSERT_GE(result.trials.size(), 1u);
  for (const ParameterTrial& trial : result.trials) {
    EXPECT_TRUE(trial.cell.ok());
    EXPECT_GT(trial.cell.peak_heap_bytes, 0u);
    EXPECT_GT(trial.cell.counters[static_cast<int>(TraceCounter::kRrSets)],
              0u);
  }
}

TEST(ImFrameworkDeathTest, UnsupportedModelAborts) {
  Graph g = WcGraph();
  const AlgorithmSpec* spec = FindAlgorithm("LDAG");
  EXPECT_DEATH(RunImFramework(*spec, g, DiffusionKind::kIndependentCascade,
                              5, CellOptions()),
               "does not support");
}

}  // namespace
}  // namespace imbench
