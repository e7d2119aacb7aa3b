#include "diffusion/spread.h"

#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>
#include "common/thread_pool.h"
#include "framework/datasets.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

using testutil::SpreadOpts;

TEST(SpreadTest, DeterministicChainHasZeroVariance) {
  Graph g = testutil::PathGraph(5, 1.0);
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(200, 1));
  EXPECT_DOUBLE_EQ(est.mean, 5.0);
  EXPECT_DOUBLE_EQ(est.stddev, 0.0);
  EXPECT_DOUBLE_EQ(est.StdError(), 0.0);
  EXPECT_EQ(est.simulations, 200u);
}

TEST(SpreadTest, ReproducibleForSameSeed) {
  Graph g = testutil::HubGraph();
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate a = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(500, 42));
  const SpreadEstimate b = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(500, 42));
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
}

TEST(SpreadTest, MeanBoundedBySeedsAndNodes) {
  Graph g = testutil::HubGraph();
  const std::vector<NodeId> seeds = {0, 3};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(300, 7));
  EXPECT_GE(est.mean, 2.0);
  EXPECT_LE(est.mean, 7.0);
}

TEST(SpreadTest, MonotoneInSeedSet) {
  // σ is monotone (Sec. 2.2): adding a seed cannot reduce expected spread.
  Graph g = testutil::TwoStars(0.6);
  const std::vector<NodeId> small = {0};
  const std::vector<NodeId> larger = {0, 4};
  const SpreadEstimate s = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, small, SpreadOpts(2000, 3));
  const SpreadEstimate l = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, larger, SpreadOpts(2000, 3));
  EXPECT_GT(l.mean, s.mean);
}

TEST(SpreadTest, HubSpreadMatchesClosedForm) {
  // Hub 0 -> five children at p = 0.9 plus grandchild at 0.05 via node 5:
  // E[Γ({0})] = 1 + 5·0.9 + 0.9·0.05 = 5.545.
  Graph g = testutil::HubGraph(0.9, 0.05);
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(20000, 5));
  EXPECT_NEAR(est.mean, 5.545, 0.05);
}

TEST(SpreadTest, ScratchOverloadAgreesWithStreamOverload) {
  Graph g = testutil::HubGraph();
  const std::vector<NodeId> seeds = {0};
  StreamingScratch scratch(g.num_nodes(), 17);
  SpreadOptions streaming;
  streaming.simulations = 3000;
  streaming.streaming = &scratch;
  const SpreadEstimate a =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, seeds, streaming);
  const SpreadEstimate b = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(3000, 17));
  EXPECT_NEAR(a.mean, b.mean, 0.2);  // same distribution, different streams
}

TEST(SpreadTest, StdErrorIsZeroBelowTwoSamples) {
  SpreadEstimate none;
  EXPECT_DOUBLE_EQ(none.StdError(), 0.0);
  SpreadEstimate one;
  one.mean = 3.0;
  one.simulations = 1;
  // A guard-tripped run can aggregate a single sample; the standard error
  // must come back 0, never NaN.
  EXPECT_DOUBLE_EQ(one.StdError(), 0.0);
  EXPECT_FALSE(std::isnan(one.StdError()));
}

TEST(SpreadTest, ZeroSimulations) {
  Graph g = testutil::PathGraph(3, 1.0);
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(0, 1));
  EXPECT_EQ(est.simulations, 0u);
  EXPECT_DOUBLE_EQ(est.mean, 0.0);
}

TEST(SpreadTest, LtUniformSpreadWithinBounds) {
  Graph g = testutil::TwoStars(1.0);
  AssignLtUniform(g);
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kLinearThreshold, seeds, SpreadOpts(1000, 9));
  // Star children have in-degree 1, weight 1 => always activated.
  EXPECT_DOUBLE_EQ(est.mean, 4.0);
}

// Multi-threaded estimation through the same entry point. Tests inject
// private ThreadPool instances so real worker threads run even on
// single-core machines (where the shared pool has zero workers and
// everything degrades to inline execution).

TEST(ParallelSpreadTest, MatchesSequentialExactly) {
  // Simulation i is pinned to stream i and samples aggregate in index
  // order, so the estimate must be bit-identical for any thread count.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  const std::vector<NodeId> seeds = {1, 5, 9};
  const SpreadEstimate sequential = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(500, 11));
  for (const uint32_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads - 1);
    const SpreadEstimate parallel =
        EstimateSpread(g, DiffusionKind::kIndependentCascade, seeds,
                       SpreadOpts(500, 11, threads, &pool));
    EXPECT_DOUBLE_EQ(parallel.mean, sequential.mean) << threads;
    EXPECT_DOUBLE_EQ(parallel.stddev, sequential.stddev) << threads;
  }
}

TEST(ParallelSpreadTest, LtModelSupported) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  const std::vector<NodeId> seeds = {0, 2};
  const SpreadEstimate sequential = EstimateSpread(
      g, DiffusionKind::kLinearThreshold, seeds, SpreadOpts(300, 5));
  ThreadPool pool(1);
  const SpreadEstimate parallel =
      EstimateSpread(g, DiffusionKind::kLinearThreshold, seeds,
                     SpreadOpts(300, 5, 2, &pool));
  EXPECT_DOUBLE_EQ(parallel.mean, sequential.mean);
}

TEST(ParallelSpreadTest, ZeroSimulations) {
  Graph g = testutil::PathGraph(3, 1.0);
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(0, 1, 4));
  EXPECT_EQ(est.simulations, 0u);
}

TEST(ParallelSpreadTest, MoreThreadsThanSimulations) {
  Graph g = testutil::PathGraph(4, 1.0);
  const std::vector<NodeId> seeds = {0};
  ThreadPool pool(3);
  const SpreadEstimate est =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, seeds,
                     SpreadOpts(3, 1, 64, &pool));
  EXPECT_DOUBLE_EQ(est.mean, 4.0);
}

TEST(ParallelSpreadTest, DefaultThreadCount) {
  // threads = 0 resolves to all hardware threads via the shared pool.
  Graph g = testutil::HubGraph();
  const std::vector<NodeId> seeds = {0};
  const SpreadEstimate est = EstimateSpread(
      g, DiffusionKind::kIndependentCascade, seeds, SpreadOpts(200, 3, 0));
  EXPECT_GT(est.mean, 1.0);
}

TEST(ParallelSpreadTest, ScalarDecodeCountInvariantUnderThreads) {
  // Scalar lanes record each simulation's decode count next to its sample,
  // and the count is summed over the completed prefix in index order, so
  // the trace on an .imgrf graph is the same for every thread count.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  const std::string path = ::testing::TempDir() + "/spread_decode.imgrf";
  std::string error;
  ASSERT_TRUE(WriteGraphFile(g, WeightModel::kWc, path, &error)) << error;
  CompactGraph compact;
  ASSERT_EQ(CompactGraph::Open(path, &compact, &error), SealedStatus::kOk)
      << error;
  const std::vector<NodeId> seeds = {1, 5, 9};
  uint64_t reference = 0;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads - 1);
    Trace trace;
    SpreadOptions options =
        SpreadOpts(300, 7, threads, threads > 1 ? &pool : nullptr);
    options.engine = McEngine::kScalar;
    options.trace = &trace;
    EstimateSpread(GraphView(compact), DiffusionKind::kIndependentCascade,
                   seeds, options);
    const uint64_t decoded = trace.Total(TraceCounter::kNeighborBlocksDecoded);
    if (threads == 1) reference = decoded;
    EXPECT_GT(decoded, 0u) << threads;
    EXPECT_EQ(decoded, reference) << threads;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imbench
