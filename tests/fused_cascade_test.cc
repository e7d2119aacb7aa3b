// Differential and contract tests for the bit-parallel fused MC kernels
// (diffusion/fused_cascade.h) and their EstimateSpread / RR-engine wiring.
//
// The anchor is FusedScalarReplay: a plain sequential BFS that re-derives
// the exact coin masks / thresholds of one fused lane. Every lane of every
// block must match it bit for bit, across all six weight models — that
// pins the AND/OR coin-mask ladder, the block-seed derivation, and the
// LT thresholds and push/pull levels all at once. The replay recomputes
// each LT sum per contact, an independent algorithm from the kernel's.
#include "diffusion/fused_cascade.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "diffusion/parallel_rr.h"
#include "diffusion/rr_sets.h"
#include "diffusion/spread.h"
#include "framework/registry.h"
#include "framework/run_guard.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"
#include "tests/oracle_util.h"
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
Graph HubHeavyGraph(WeightModel model) {
  Rng rng(0xba);
  EdgeList list = BarabasiAlbert(3000, 5, rng);
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
              GraphFileStatus::kOk)
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

// ---------------------------------------------------------------------------
// Fused reverse-reachable generation.

Graph RrGraph(NodeId n = 200) {
  std::vector<Arc> arcs;
  for (NodeId i = 0; i < n; ++i) {
    arcs.push_back(Arc{i, (i + 1) % n});
    const NodeId far = (i * 13 + 5) % n;
    if (far != i) arcs.push_back(Arc{i, far});
    if (i % 4 == 0) {
      const NodeId hop = (i * 29 + 11) % n;
      if (hop != i) arcs.push_back(Arc{i, hop});
    }
  }
  Graph g = Graph::FromArcs(n, arcs);
  AssignWeightedCascade(g);
  return g;
}

SamplerOptions FusedSamplerOpts(DiffusionKind kind, uint32_t threads = 1,
                                ThreadPool* pool = nullptr) {
  SamplerOptions options;
  options.kind = kind;
  options.engine = McEngine::kFused64;
  options.threads = threads;
  options.pool = pool;
  return options;
}

TEST(FusedKernelRrTest, SequentialAndParallelFusedCorporaIdentical) {
  Graph graph = RrGraph();
  const uint64_t kSeed = 77;
  const uint64_t kCount = 700;

  RrSampler sequential(
      graph, FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection seq_out(graph.num_nodes());
  std::vector<uint64_t> seq_widths;
  const RrBatchResult seq_result =
      sequential.Generate(kSeed, kCount, seq_out, &seq_widths);
  ASSERT_EQ(seq_result.generated, kCount);
  ASSERT_EQ(seq_result.stop, StopReason::kNone);

  for (const uint32_t threads : {2u, 5u}) {
    ThreadPool pool(threads - 1);
    ParallelRrSampler parallel(
        graph,
        FusedSamplerOpts(DiffusionKind::kIndependentCascade, threads, &pool));
    RrCollection par_out(graph.num_nodes());
    std::vector<uint64_t> par_widths;
    const RrBatchResult par_result =
        parallel.Generate(kSeed, kCount, par_out, &par_widths);
    ASSERT_EQ(par_result.generated, kCount);
    ASSERT_EQ(par_result.stop, StopReason::kNone);
    ASSERT_TRUE(std::equal(seq_out.MembersArena().begin(),
                           seq_out.MembersArena().end(),
                           par_out.MembersArena().begin(),
                           par_out.MembersArena().end()))
        << "threads=" << threads;
    ASSERT_TRUE(std::equal(seq_out.OffsetsArena().begin(),
                           seq_out.OffsetsArena().end(),
                           par_out.OffsetsArena().begin(),
                           par_out.OffsetsArena().end()))
        << "threads=" << threads;
    EXPECT_EQ(seq_widths, par_widths) << "threads=" << threads;
  }
}

TEST(FusedKernelRrTest, RangePartitionIndependence) {
  Graph graph = RrGraph();
  const uint64_t kSeed = 9;

  RrSampler whole(graph,
                  FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection whole_out(graph.num_nodes());
  ASSERT_EQ(whole.Generate(kSeed, 200, whole_out, nullptr).generated, 200u);

  // Same 200 sets, requested as an unaligned 37 + 163 split.
  RrSampler split(graph,
                  FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection split_out(graph.num_nodes());
  ASSERT_EQ(split.Generate(kSeed, 37, split_out, nullptr).generated, 37u);
  ASSERT_EQ(split.Generate(kSeed, 163, split_out, nullptr).generated, 163u);

  ASSERT_EQ(whole_out.size(), split_out.size());
  EXPECT_TRUE(std::equal(whole_out.MembersArena().begin(),
                         whole_out.MembersArena().end(),
                         split_out.MembersArena().begin(),
                         split_out.MembersArena().end()));
  EXPECT_TRUE(std::equal(whole_out.OffsetsArena().begin(),
                         whole_out.OffsetsArena().end(),
                         split_out.OffsetsArena().begin(),
                         split_out.OffsetsArena().end()));
}

TEST(FusedKernelRrTest, RootsMatchScalarSamplerStreams) {
  Graph graph = RrGraph();
  const uint64_t kSeed = 3;
  RrSampler sampler(graph,
                    FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection out(graph.num_nodes());
  ASSERT_EQ(sampler.Generate(kSeed, 130, out, nullptr).generated, 130u);
  for (uint64_t i = 0; i < 130; ++i) {
    Rng rng = Rng::ForStream(kSeed, i);
    const NodeId expected_root = rng.NextU32(graph.num_nodes());
    ASSERT_FALSE(out.Set(i).empty());
    EXPECT_EQ(out.Set(i).front(), expected_root) << "set=" << i;
  }
}

TEST(FusedKernelRrTest, WidthsAreMemberInDegreeSums) {
  Graph graph = RrGraph();
  RrSampler sampler(graph,
                    FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection out(graph.num_nodes());
  std::vector<uint64_t> widths;
  ASSERT_EQ(sampler.Generate(21, 96, out, &widths).generated, 96u);
  ASSERT_EQ(widths.size(), 96u);
  for (size_t i = 0; i < widths.size(); ++i) {
    uint64_t expected = 0;
    for (const NodeId v : out.Set(i)) expected += graph.InDegree(v);
    EXPECT_EQ(widths[i], expected) << "set=" << i;
  }
}

TEST(FusedKernelRrTest, LtFallsBackToScalar) {
  Graph graph = RrGraph();
  AssignLtUniform(graph);

  RrSampler fused(graph, FusedSamplerOpts(DiffusionKind::kLinearThreshold));
  RrCollection fused_out(graph.num_nodes());
  ASSERT_EQ(fused.Generate(4, 150, fused_out, nullptr).generated, 150u);

  SamplerOptions scalar_opts;
  scalar_opts.kind = DiffusionKind::kLinearThreshold;
  scalar_opts.engine = McEngine::kScalar;
  RrSampler scalar(graph, scalar_opts);
  RrCollection scalar_out(graph.num_nodes());
  ASSERT_EQ(scalar.Generate(4, 150, scalar_out, nullptr).generated, 150u);

  EXPECT_TRUE(std::equal(fused_out.MembersArena().begin(),
                         fused_out.MembersArena().end(),
                         scalar_out.MembersArena().begin(),
                         scalar_out.MembersArena().end()));
  EXPECT_TRUE(std::equal(fused_out.OffsetsArena().begin(),
                         fused_out.OffsetsArena().end(),
                         scalar_out.OffsetsArena().begin(),
                         scalar_out.OffsetsArena().end()));
}

TEST(FusedKernelRrTest, EntryCapKeepsCrossingSetAndStopsWithMemory) {
  Graph graph = RrGraph();
  const uint64_t kSeed = 15;

  // Reference: unlimited corpus.
  RrSampler unlimited(graph,
                      FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection full(graph.num_nodes());
  ASSERT_EQ(unlimited.Generate(kSeed, 300, full, nullptr).generated, 300u);

  SamplerOptions capped_opts =
      FusedSamplerOpts(DiffusionKind::kIndependentCascade);
  capped_opts.max_total_entries = full.TotalEntries() / 4;
  RrSampler capped(graph, capped_opts);
  RrCollection capped_out(graph.num_nodes());
  const RrBatchResult result = capped.Generate(kSeed, 300, capped_out, nullptr);
  EXPECT_EQ(result.stop, StopReason::kMemory);
  EXPECT_LT(result.generated, 300u);
  EXPECT_GT(result.generated, 0u);
  // Add-then-check: the crossing set is kept, so the total may exceed the
  // cap by at most one set, and the kept sets are an exact prefix.
  EXPECT_GE(capped_out.TotalEntries(), capped_opts.max_total_entries);
  ASSERT_EQ(capped_out.size(), result.generated);
  for (size_t i = 0; i < capped_out.size(); ++i) {
    const auto expect = full.Set(i);
    const auto got = capped_out.Set(i);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), expect.begin(),
                           expect.end()))
        << "set=" << i;
  }
}

TEST(FusedKernelRrTest, FusedRrEstimatorMatchesExactSpread) {
  // n * P[seed in RR set] is an unbiased estimator of σ({seed}); compare
  // the fused corpus's hit rate against the exact IC oracle.
  std::vector<Arc> arcs = {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4},
                           {4, 5}, {5, 3}, {1, 4}, {0, 1}};
  Graph graph = Graph::FromArcs(6, arcs);
  AssignWeightedCascade(graph);
  const NodeId seed_node = 0;
  const double exact = testutil::ExactSpreadIc(graph, {{seed_node}});

  const uint64_t kSets = 200000;
  RrSampler sampler(graph,
                    FusedSamplerOpts(DiffusionKind::kIndependentCascade));
  RrCollection out(graph.num_nodes());
  ASSERT_EQ(sampler.Generate(123, kSets, out, nullptr).generated, kSets);
  uint64_t hits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const auto set = out.Set(i);
    if (std::find(set.begin(), set.end(), seed_node) != set.end()) ++hits;
  }
  const double n = graph.num_nodes();
  const double p_hat = static_cast<double>(hits) / kSets;
  const double estimate = n * p_hat;
  const double sigma = n * std::sqrt(p_hat * (1 - p_hat) / kSets);
  EXPECT_NEAR(estimate, exact, 3 * sigma + 1e-6);
}

}  // namespace
}  // namespace imbench
