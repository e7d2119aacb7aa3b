// Differential and contract tests for the bit-parallel fused MC kernels
// (diffusion/fused_cascade.h) and their EstimateSpread wiring.
//
// The anchor is FusedScalarReplay: a plain sequential BFS that re-derives
// the exact coin masks / thresholds of one fused lane. Every lane of every
// block must match it bit for bit, across all six weight models — that
// pins the AND/OR coin-mask ladder, the block-seed derivation, and the
// LT thresholds, push and exact path all at once. The replay recomputes
// each LT sum per contact, an independent algorithm from the kernel's.
#include "diffusion/fused_cascade.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "diffusion/spread.h"
#include "framework/registry.h"
#include "framework/run_guard.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

// A small graph with hubs, cycles, cross edges and parallel-ish structure:
// enough topology diversity that an order-dependent bug in the kernels
// cannot hide behind a tree or a path.
Graph DiverseGraph(NodeId n = 18) {
  std::vector<Arc> arcs;
  for (NodeId i = 0; i < n; ++i) {
    arcs.push_back(Arc{i, (i + 1) % n});
    const NodeId far = (i * 5 + 2) % n;
    if (far != i) arcs.push_back(Arc{i, far});
    if (i % 3 == 0) {
      const NodeId hop = (i * 7 + 4) % n;
      if (hop != i) arcs.push_back(Arc{i, hop});
    }
  }
  return Graph::FromArcs(n, arcs);
}

const WeightModel kAllModels[] = {
    WeightModel::kIcConstant, WeightModel::kWc,       WeightModel::kTrivalency,
    WeightModel::kLtUniform,  WeightModel::kLtRandom, WeightModel::kLtParallel,
};

TEST(FusedKernelTest, BlockGammaMatchesScalarReplayAcrossModels) {
  const std::vector<std::vector<NodeId>> seed_sets = {{0}, {0, 3}, {1, 5, 7}};
  for (const WeightModel model : kAllModels) {
    Graph graph = DiverseGraph();
    Rng wrng(0x5eed);
    AssignWeights(graph, model, 0.3, wrng);
    const DiffusionKind kind = DiffusionKindFor(model);
    FusedCascadeContext context(graph);
    NodeId gamma[kFusedLanes];
    for (const auto& seeds : seed_sets) {
      for (const uint64_t block : {uint64_t{0}, uint64_t{3}}) {
        context.RunBlock(kind, seeds, 42, block, kFusedLanes, gamma);
        for (uint32_t lane = 0; lane < kFusedLanes; ++lane) {
          const NodeId replay =
              FusedScalarReplay(graph, kind, seeds, 42, block * 64 + lane);
          ASSERT_EQ(gamma[lane], replay)
              << "model=" << WeightModelName(model) << " block=" << block
              << " lane=" << lane;
        }
      }
    }
  }
}

// Preferential attachment with both arc directions: hubs carry in-degrees
// in the hundreds, so one hub is contacted by many active in-neighbors per
// level, and LT cascades from the hubs run many levels deep.
Graph HubHeavyGraph(WeightModel model, NodeId n = 3000) {
  Rng rng(0xba);
  EdgeList list = BarabasiAlbert(n, 5, rng);
  const size_t forward = list.arcs.size();
  for (size_t i = 0; i < forward; ++i) {
    list.arcs.push_back(Arc{list.arcs[i].target, list.arcs[i].source});
  }
  Graph graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  Rng wrng(0x1f);
  AssignWeights(graph, model, 0.1, wrng);
  return graph;
}

const std::vector<NodeId> kHubSeeds = {0, 1, 2, 3, 4, 5};

TEST(FusedKernelTest, LtHubGraphMatchesScalarReplay) {
  for (const WeightModel model : {WeightModel::kLtUniform,
                                  WeightModel::kLtRandom,
                                  WeightModel::kLtParallel}) {
    const Graph graph = HubHeavyGraph(model);
    uint32_t max_in = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      max_in = std::max(max_in, graph.InDegree(v));
    }
    ASSERT_GE(max_in, 200u);
    FusedCascadeContext context(graph);
    NodeId gamma[kFusedLanes];
    uint64_t reached = 0;
    for (const auto& [block, lanes] :
         {std::pair<uint64_t, uint32_t>{0, kFusedLanes}, {5, kFusedLanes},
          {5, 23}}) {
      context.RunBlock(DiffusionKind::kLinearThreshold, kHubSeeds, 42, block,
                       lanes, gamma);
      for (uint32_t lane = 0; lane < lanes; ++lane) {
        ASSERT_EQ(gamma[lane],
                  FusedScalarReplay(graph, DiffusionKind::kLinearThreshold,
                                    kHubSeeds, 42, block * 64 + lane))
            << "model=" << WeightModelName(model) << " block=" << block
            << " lanes=" << lanes << " lane=" << lane;
        reached += gamma[lane];
      }
    }
    // The cascades must spread well past the seeds (about 800 of 3000
    // nodes per lane) to exercise the hubs.
    EXPECT_GT(reached, 400u * (2 * kFusedLanes + 23))
        << "model=" << WeightModelName(model);
  }
}

TEST(FusedKernelTest, PartialLaneTailMatchesFullBlockPrefix) {
  Graph graph = DiverseGraph();
  AssignWeightedCascade(graph);
  const std::vector<NodeId> seeds = {0, 4};
  FusedCascadeContext context(graph);
  NodeId full[kFusedLanes];
  NodeId partial[kFusedLanes];
  context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 7, 2,
                   kFusedLanes, full);
  context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 7, 2, 17,
                   partial);
  for (uint32_t lane = 0; lane < 17; ++lane) {
    EXPECT_EQ(partial[lane], full[lane]) << "lane=" << lane;
  }
}

TEST(FusedKernelTest, EstimateBitIdenticalAcrossThreadCounts) {
  for (const WeightModel model : {WeightModel::kWc, WeightModel::kLtUniform}) {
    Graph graph = DiverseGraph();
    Rng wrng(0x5eed);
    AssignWeights(graph, model, 0.1, wrng);
    const DiffusionKind kind = DiffusionKindFor(model);
    const std::vector<NodeId> seeds = {0, 9};

    SpreadOptions sequential = testutil::SpreadOpts(512, 11);
    sequential.engine = McEngine::kFused64;
    const SpreadEstimate base = EstimateSpread(graph, kind, seeds, sequential);
    EXPECT_EQ(base.simulations, 512u);

    for (const uint32_t threads : {2u, 3u, 8u}) {
      ThreadPool pool(threads - 1);
      SpreadOptions parallel = testutil::SpreadOpts(512, 11, threads, &pool);
      parallel.engine = McEngine::kFused64;
      const SpreadEstimate est = EstimateSpread(graph, kind, seeds, parallel);
      EXPECT_DOUBLE_EQ(est.mean, base.mean)
          << WeightModelName(model) << " threads=" << threads;
      EXPECT_DOUBLE_EQ(est.stddev, base.stddev)
          << WeightModelName(model) << " threads=" << threads;
      EXPECT_EQ(est.simulations, base.simulations)
          << WeightModelName(model) << " threads=" << threads;
    }
  }
}

// The fused LT kernel on the mmap'd backend must reproduce the heap
// estimate bit for bit, and trace the same decode count for every thread
// count (the heap backend decodes nothing).
TEST(FusedKernelTest, LtEstimateIdenticalAcrossBackends) {
  for (const WeightModel model :
       {WeightModel::kLtUniform, WeightModel::kLtRandom}) {
    const Graph graph = HubHeavyGraph(model);
    const std::string path = ::testing::TempDir() + "/fused_lt.imgrf";
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph, model, path, &error)) << error;
    CompactGraph compact;
    ASSERT_EQ(CompactGraph::Open(path, &compact, &error),
              SealedStatus::kOk)
        << error;

    Trace heap_trace;
    SpreadOptions heap_options = testutil::SpreadOpts(200, 17);
    heap_options.engine = McEngine::kFused64;
    heap_options.trace = &heap_trace;
    const SpreadEstimate heap = EstimateSpread(
        graph, DiffusionKind::kLinearThreshold, kHubSeeds, heap_options);
    EXPECT_EQ(heap_trace.Total(TraceCounter::kNeighborBlocksDecoded), 0u);

    uint64_t decoded = 0;
    for (const uint32_t threads : {1u, 2u, 3u, 8u}) {
      ThreadPool pool(threads - 1);
      Trace trace;
      SpreadOptions options = testutil::SpreadOpts(
          200, 17, threads, threads > 1 ? &pool : nullptr);
      options.engine = McEngine::kFused64;
      options.trace = &trace;
      const SpreadEstimate est = EstimateSpread(
          GraphView(compact), DiffusionKind::kLinearThreshold, kHubSeeds,
          options);
      EXPECT_DOUBLE_EQ(est.mean, heap.mean)
          << WeightModelName(model) << " threads=" << threads;
      EXPECT_DOUBLE_EQ(est.stddev, heap.stddev)
          << WeightModelName(model) << " threads=" << threads;
      const uint64_t count =
          trace.Total(TraceCounter::kNeighborBlocksDecoded);
      if (threads == 1) decoded = count;
      EXPECT_GT(count, 0u) << WeightModelName(model);
      EXPECT_EQ(count, decoded)
          << WeightModelName(model) << " threads=" << threads;
    }
    std::remove(path.c_str());
  }
}

}  // namespace

// Sends every contacted lane of a context's LT blocks through the exact
// in-edge sweep (B = +inf), the path the default margin almost never takes.
class FusedCascadeContextTestPeer {
 public:
  static void ForceExactPath(FusedCascadeContext& context) {
    context.PrepareScratch(DiffusionKind::kLinearThreshold);
    context.lt_margin_ = std::numeric_limits<double>::infinity();
  }
};

namespace {

// Γ of the default and the forced-exact path must equal the replay lane
// for lane on both backends and for full and partial tail blocks. The
// seed list holds a duplicate and a seed that is another's out-neighbor.
TEST(FusedKernelExactPathTest, ForcedExactSweepMatchesReplayAndDefault) {
  for (const WeightModel model : {WeightModel::kLtUniform,
                                  WeightModel::kLtRandom,
                                  WeightModel::kLtParallel}) {
    const Graph graph = HubHeavyGraph(model, 2000);
    const std::string path = ::testing::TempDir() + "/fused_lt_exact.imgrf";
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph, model, path, &error)) << error;
    CompactGraph compact;
    ASSERT_EQ(CompactGraph::Open(path, &compact, &error),
              SealedStatus::kOk)
        << error;
    const std::vector<NodeId> seeds = {7, 0, graph.OutTargets(0)[0], 7};
    constexpr uint64_t kBlock = 2;
    NodeId replay[kFusedLanes];
    for (uint32_t lane = 0; lane < kFusedLanes; ++lane) {
      replay[lane] = FusedScalarReplay(graph, DiffusionKind::kLinearThreshold,
                                       seeds, 42, kBlock * 64 + lane);
    }
    for (const GraphView view : {GraphView(graph), GraphView(compact)}) {
      FusedCascadeContext fast(view);
      FusedCascadeContext exact(view);
      FusedCascadeContextTestPeer::ForceExactPath(exact);
      for (const uint32_t lanes : {kFusedLanes, 23u}) {
        NodeId fast_gamma[kFusedLanes];
        NodeId exact_gamma[kFusedLanes];
        fast.RunBlock(DiffusionKind::kLinearThreshold, seeds, 42, kBlock,
                      lanes, fast_gamma);
        exact.RunBlock(DiffusionKind::kLinearThreshold, seeds, 42, kBlock,
                       lanes, exact_gamma);
        for (uint32_t lane = 0; lane < lanes; ++lane) {
          ASSERT_EQ(exact_gamma[lane], replay[lane])
              << WeightModelName(model) << " compact=" << view.is_compact()
              << " lanes=" << lanes << " lane=" << lane;
          ASSERT_EQ(fast_gamma[lane], replay[lane])
              << WeightModelName(model) << " compact=" << view.is_compact()
              << " lanes=" << lanes << " lane=" << lane;
        }
      }
      EXPECT_EQ(fast.exact_lanes(), 0u) << WeightModelName(model);
      EXPECT_GT(exact.exact_lanes(), 0u) << WeightModelName(model);
    }
    std::remove(path.c_str());
  }
}

// The fl(in-edge-order sum) of the `active` positions of `weights`.
double InEdgeOrderSum(const std::vector<double>& weights,
                      std::vector<uint32_t> active) {
  std::sort(active.begin(), active.end());
  double sum = 0;
  for (const uint32_t e : active) sum += weights[e];
  return sum;
}

// t − w_π1 − … − w_πk in activation order π, as the kernel's slot holds it.
double Residual(double threshold, const std::vector<double>& weights,
                const std::vector<uint32_t>& active) {
  double residual = threshold;
  for (const uint32_t e : active) residual -= weights[e];
  return residual;
}

// Whenever the three-way decision is not kExact it must agree with the
// replay's comparison, for in-degrees up to 5000, weights from 1e-9 to 1,
// in-weight sums above 1 and random activation orders; and a threshold
// equal to the in-edge-order sum, or one ulp off it, must be exact.
TEST(FusedKernelMarginTest, DecisionsAgreeWithInEdgeOrderSum) {
  Rng rng(0xb0d);
  uint64_t decided = 0;
  uint32_t sums_above_one = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t degree =
        trial < 20   ? 5000
        : trial < 40 ? 1 + trial % 3
                     : 1 + static_cast<uint32_t>(rng.NextU64(5000));
    std::vector<double> weights(degree);
    double max_weight = 0;
    for (double& w : weights) {
      w = std::pow(10.0, -9.0 * rng.NextDouble());
      max_weight = std::max(max_weight, w);
    }
    std::vector<uint32_t> order(degree);
    for (uint32_t e = 0; e < degree; ++e) order[e] = e;
    for (uint32_t e = degree; e > 1; --e) {
      std::swap(order[e - 1], order[rng.NextU64(e)]);
    }
    const uint32_t k = 1 + static_cast<uint32_t>(rng.NextU64(degree));
    const std::vector<uint32_t> active(order.begin(), order.begin() + k);
    const double sum = InEdgeOrderSum(weights, active);
    if (sum > 1) ++sums_above_one;
    const double margin = LtRoundingMargin(degree, max_weight);
    ASSERT_GT(margin, 0);

    for (const double tie : {sum, std::nextafter(sum, 0.0),
                             std::nextafter(sum, 2 * sum + 1)}) {
      EXPECT_EQ(DecideLt(Residual(tie, weights, active), margin),
                LtDecision::kExact)
          << "degree=" << degree << " k=" << k << " sum=" << sum
          << " t=" << tie;
    }
    std::vector<double> thresholds;
    for (int i = 0; i < 8; ++i) thresholds.push_back(rng.NextDouble());
    for (const double scale : {0.25, 0.5, 1.0, 1.5, 2.0, 4.0}) {
      thresholds.push_back(sum + scale * margin);
      thresholds.push_back(sum - scale * margin);
    }
    for (int shift = 1; shift < 40; shift += 3) {
      const double ulps = std::ldexp(1.0, shift);
      const double ulp = std::nextafter(sum, 2 * sum + 1) - sum;
      thresholds.push_back(sum + ulps * ulp);
      thresholds.push_back(sum - ulps * ulp);
    }
    for (const double t : thresholds) {
      const LtDecision decision =
          DecideLt(Residual(t, weights, active), margin);
      if (decision == LtDecision::kExact) continue;
      ++decided;
      ASSERT_EQ(decision == LtDecision::kActivate, sum >= t)
          << "degree=" << degree << " k=" << k << " sum=" << sum
          << " t=" << t << " margin=" << margin;
    }
  }
  EXPECT_GT(sums_above_one, 50u);
  // The margin must be tight enough to decide the uniform draws and the
  // thresholds far outside it without a sweep.
  EXPECT_GT(decided, 200u * 8u);
}

TEST(FusedKernelMarginTest, NonFiniteInputsForceTheExactPath) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(LtRoundingMargin(10, kInf), kInf);
  EXPECT_EQ(LtRoundingMargin(10, std::nan("")), kInf);
  EXPECT_EQ(LtRoundingMargin(uint64_t{1} << 40, 1e300), kInf);
  EXPECT_EQ(DecideLt(std::nan(""), 1e-9), LtDecision::kExact);
  EXPECT_EQ(DecideLt(-1.0, kInf), LtDecision::kExact);
  EXPECT_EQ(DecideLt(1.0, kInf), LtDecision::kExact);
}

TEST(FusedKernelTest, AutoDispatchesBySimulationCount) {
  Graph graph = testutil::HubGraph();
  const std::vector<NodeId> seeds = {0};

  // >= 64 simulations: auto == fused, bitwise.
  SpreadOptions auto_many = testutil::SpreadOpts(128, 5);
  SpreadOptions fused = testutil::SpreadOpts(128, 5);
  fused.engine = McEngine::kFused64;
  const SpreadEstimate a = EstimateSpread(
      graph, DiffusionKind::kIndependentCascade, seeds, auto_many);
  const SpreadEstimate f =
      EstimateSpread(graph, DiffusionKind::kIndependentCascade, seeds, fused);
  EXPECT_DOUBLE_EQ(a.mean, f.mean);
  EXPECT_DOUBLE_EQ(a.stddev, f.stddev);

  // < 64 simulations: auto == scalar, bitwise.
  SpreadOptions auto_few = testutil::SpreadOpts(32, 5);
  SpreadOptions scalar = testutil::SpreadOpts(32, 5);
  scalar.engine = McEngine::kScalar;
  const SpreadEstimate af =
      EstimateSpread(graph, DiffusionKind::kIndependentCascade, seeds, auto_few);
  const SpreadEstimate s =
      EstimateSpread(graph, DiffusionKind::kIndependentCascade, seeds, scalar);
  EXPECT_DOUBLE_EQ(af.mean, s.mean);
  EXPECT_DOUBLE_EQ(af.stddev, s.stddev);
}

TEST(FusedKernelTest, PreTrippedGuardYieldsZeroSimulations) {
  Graph graph = testutil::HubGraph();
  RunGuard guard{RunBudget{}};
  guard.Trip(StopReason::kDeadline);
  SpreadOptions options = testutil::SpreadOpts(256, 3);
  options.engine = McEngine::kFused64;
  options.guard = &guard;
  const SpreadEstimate est = EstimateSpread(
      graph, DiffusionKind::kIndependentCascade, {{NodeId{0}}}, options);
  EXPECT_EQ(est.simulations, 0u);
  EXPECT_EQ(est.mean, 0.0);
}

TEST(FusedKernelTest, GuardTripTruncatesOnBlockBoundary) {
  Graph graph = DiverseGraph();
  AssignWeightedCascade(graph);
  const std::vector<NodeId> seeds = {0};
  for (const uint32_t threads : {1u, 4u}) {
    RunBudget budget;
    budget.deadline_seconds = 1e-9;  // trips on the first real clock check
    RunGuard guard(budget);
    ThreadPool pool(3);
    SpreadOptions options = testutil::SpreadOpts(
        200, 13, threads, threads > 1 ? &pool : nullptr);
    options.engine = McEngine::kFused64;
    options.guard = &guard;
    const SpreadEstimate est = EstimateSpread(
        graph, DiffusionKind::kIndependentCascade, seeds, options);
    // The guard is polled per 64-simulation block, so a trip can only
    // truncate the sample at a block boundary (or not at all).
    EXPECT_TRUE(est.simulations % 64 == 0 || est.simulations == 200)
        << "threads=" << threads << " simulations=" << est.simulations;
    EXPECT_LE(est.simulations, 200u);
  }
}

TEST(FusedKernelTest, TraceCountsFusedBlocksAndSimulations) {
  Graph graph = testutil::HubGraph();
  Trace trace;
  SpreadOptions options = testutil::SpreadOpts(256, 9);
  options.engine = McEngine::kFused64;
  options.trace = &trace;
  EstimateSpread(graph, DiffusionKind::kIndependentCascade, {{NodeId{0}}},
                 options);
  EXPECT_EQ(trace.Total(TraceCounter::kFusedBlocks), 4u);
  EXPECT_EQ(trace.Total(TraceCounter::kSimulations), 256u);

  // The scalar engine never counts fused blocks.
  Trace scalar_trace;
  SpreadOptions scalar = testutil::SpreadOpts(256, 9);
  scalar.engine = McEngine::kScalar;
  scalar.trace = &scalar_trace;
  EstimateSpread(graph, DiffusionKind::kIndependentCascade, {{NodeId{0}}},
                 scalar);
  EXPECT_EQ(scalar_trace.Total(TraceCounter::kFusedBlocks), 0u);
  EXPECT_EQ(scalar_trace.Total(TraceCounter::kSimulations), 256u);
}

TEST(FusedKernelDeathTest, StreamingWithFusedEngineChecks) {
  Graph graph = testutil::HubGraph();
  StreamingScratch scratch(graph.num_nodes(), 1);
  SpreadOptions options = testutil::SpreadOpts(128, 1);
  options.engine = McEngine::kFused64;
  options.streaming = &scratch;
  EXPECT_DEATH(EstimateSpread(graph, DiffusionKind::kIndependentCascade,
                              {{NodeId{0}}}, options),
               "streaming");
}

}  // namespace
}  // namespace imbench
