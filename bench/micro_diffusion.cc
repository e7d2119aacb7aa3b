// Micro benchmarks for the diffusion engine: cascade simulation and
// RR-set generation throughput, including the ablation called out in
// DESIGN.md (epoch-stamped scratch vs a fresh context per simulation), and
// the CELF-shaped probe of the live-stream estimator against the fused one
// (EXPERIMENTS.md, Fig. 9), and the fused-vs-scalar floor rows CI gates.

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/micro_floor.h"
#include "common/timer.h"
#include "diffusion/cascade.h"
#include "diffusion/fused_cascade.h"
#include "diffusion/rr_sets.h"
#include "diffusion/spread.h"
#include "diffusion/streaming.h"
#include "framework/datasets.h"
#include "graph/generators.h"
#include "graph/weights.h"

namespace imbench {
namespace {

Graph& WcGraph() {
  static Graph& graph = *new Graph([] {
    Graph g = MakeDataset("nethept", DatasetScale::kBench);
    AssignWeightedCascade(g);
    return g;
  }());
  return graph;
}

Graph& IcGraph() {
  static Graph& graph = *new Graph([] {
    Graph g = MakeDataset("nethept", DatasetScale::kBench);
    AssignConstantWeights(g, 0.1);
    return g;
  }());
  return graph;
}

Graph& LtGraph() {
  static Graph& graph = *new Graph([] {
    Graph g = MakeDataset("nethept", DatasetScale::kBench);
    AssignLtUniform(g);
    return g;
  }());
  return graph;
}

void BM_CascadeIcWc(benchmark::State& state) {
  const Graph& graph = WcGraph();
  CascadeContext context(graph.num_nodes());
  Rng rng(1);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeIcWc);

void BM_CascadeIcConstant(benchmark::State& state) {
  const Graph& graph = IcGraph();
  CascadeContext context(graph.num_nodes());
  Rng rng(2);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeIcConstant);

void BM_CascadeLt(benchmark::State& state) {
  const Graph& graph = LtGraph();
  CascadeContext context(graph.num_nodes());
  Rng rng(3);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kLinearThreshold, seeds, rng));
  }
}
BENCHMARK(BM_CascadeLt);

// Ablation: constructing a fresh CascadeContext per simulation pays an
// O(n) clear each time — the epoch-stamp design exists to avoid this.
void BM_CascadeFreshContextAblation(benchmark::State& state) {
  const Graph& graph = WcGraph();
  Rng rng(4);
  const std::vector<NodeId> seeds = {0, 7, 42};
  for (auto _ : state) {
    CascadeContext context(graph.num_nodes());
    benchmark::DoNotOptimize(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
}
BENCHMARK(BM_CascadeFreshContextAblation);

// Fused kernels: one iteration is a whole 64-simulation block, so compare
// items-per-second here against 64x the scalar cascade benchmarks.
void BM_FusedBlockIcWc(benchmark::State& state) {
  const Graph& graph = WcGraph();
  FusedCascadeContext context(graph);
  const std::vector<NodeId> seeds = {0, 7, 42};
  NodeId gamma[kFusedLanes];
  uint64_t block = 0;
  for (auto _ : state) {
    context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 1, block++,
                     kFusedLanes, gamma);
    benchmark::DoNotOptimize(gamma[0]);
  }
  state.SetItemsProcessed(state.iterations() * kFusedLanes);
}
BENCHMARK(BM_FusedBlockIcWc);

void BM_FusedBlockIcConstant(benchmark::State& state) {
  const Graph& graph = IcGraph();
  FusedCascadeContext context(graph);
  const std::vector<NodeId> seeds = {0, 7, 42};
  NodeId gamma[kFusedLanes];
  uint64_t block = 0;
  for (auto _ : state) {
    context.RunBlock(DiffusionKind::kIndependentCascade, seeds, 2, block++,
                     kFusedLanes, gamma);
    benchmark::DoNotOptimize(gamma[0]);
  }
  state.SetItemsProcessed(state.iterations() * kFusedLanes);
}
BENCHMARK(BM_FusedBlockIcConstant);

void BM_FusedBlockLt(benchmark::State& state) {
  const Graph& graph = LtGraph();
  FusedCascadeContext context(graph);
  const std::vector<NodeId> seeds = {0, 7, 42};
  NodeId gamma[kFusedLanes];
  uint64_t block = 0;
  for (auto _ : state) {
    context.RunBlock(DiffusionKind::kLinearThreshold, seeds, 3, block++,
                     kFusedLanes, gamma);
    benchmark::DoNotOptimize(gamma[0]);
  }
  state.SetItemsProcessed(state.iterations() * kFusedLanes);
}
BENCHMARK(BM_FusedBlockLt);

// CELF-shaped estimates: one iteration is a sweep of σ({0, v}) estimates
// at r simulations over 32 candidates v spread evenly across the node
// range, the call a CELF-family selection makes per marginal gain. Both
// sides sweep the same candidates. The scalar side is the live-stream
// estimator those selections use (StreamingScratch::Estimate); the fused
// side is EstimateSpread on one thread, per-call context set-up included.
// Args: dataset (0 nethept, 1 hepph, 2 dblp; bench scale), model (0 WC,
// 1 LT-uniform), r.
constexpr NodeId kCelfProbeCandidates = 32;

const Graph& CelfProbeGraph(int64_t dataset, int64_t lt) {
  static auto& cache = *new std::map<int64_t, std::unique_ptr<Graph>>();
  std::unique_ptr<Graph>& graph = cache[dataset * 2 + lt];
  if (graph == nullptr) {
    const char* const names[] = {"nethept", "hepph", "dblp"};
    graph = std::make_unique<Graph>(
        MakeDataset(names[dataset], DatasetScale::kBench));
    if (lt != 0) {
      AssignLtUniform(*graph);
    } else {
      AssignWeightedCascade(*graph);
    }
  }
  return *graph;
}

template <typename EstimateFn>
void RunCelfProbe(benchmark::State& state, const EstimateFn& estimate) {
  const Graph& graph = CelfProbeGraph(state.range(0), state.range(1));
  const DiffusionKind kind = state.range(1) != 0
                                 ? DiffusionKind::kLinearThreshold
                                 : DiffusionKind::kIndependentCascade;
  const auto simulations = static_cast<uint32_t>(state.range(2));
  const NodeId stride = (graph.num_nodes() - 1) / kCelfProbeCandidates;
  std::vector<NodeId> seeds = {0, 0};
  for (auto _ : state) {
    for (NodeId i = 0; i < kCelfProbeCandidates; ++i) {
      seeds[1] = 1 + i * stride;
      benchmark::DoNotOptimize(
          estimate(graph, kind, seeds, simulations).mean);
    }
  }
}

void BM_CelfGainScalarStream(benchmark::State& state) {
  const Graph& graph = CelfProbeGraph(state.range(0), state.range(1));
  StreamingScratch scratch(graph.num_nodes(), 1);
  RunCelfProbe(state, [&](const Graph& g, DiffusionKind kind,
                          const std::vector<NodeId>& seeds, uint32_t r) {
    return scratch.Estimate(g, kind, seeds, r, nullptr, nullptr);
  });
}

void BM_CelfGainFused(benchmark::State& state) {
  SpreadOptions options;
  options.seed = 1;
  RunCelfProbe(state, [&](const Graph& g, DiffusionKind kind,
                          const std::vector<NodeId>& seeds, uint32_t r) {
    options.simulations = r;
    return EstimateSpread(g, kind, seeds, options);
  });
}

void CelfProbeArgs(benchmark::internal::Benchmark* b) {
  b->Args({0, 0, 200})->Args({1, 0, 200})->Args({2, 0, 200});
  b->Args({2, 0, 1024})->Args({2, 1, 200});
  b->Unit(benchmark::kMillisecond);
}
BENCHMARK(BM_CelfGainScalarStream)->Apply(CelfProbeArgs);
BENCHMARK(BM_CelfGainFused)->Apply(CelfProbeArgs);

void BM_RrSetIcWc(benchmark::State& state) {
  const Graph& graph = WcGraph();
  RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
  Rng rng(5);
  std::vector<NodeId> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.GenerateFromRoot(rng.NextU32(graph.num_nodes()), rng, out));
  }
}
BENCHMARK(BM_RrSetIcWc);

void BM_RrSetIcConstant(benchmark::State& state) {
  const Graph& graph = IcGraph();
  RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
  Rng rng(6);
  std::vector<NodeId> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.GenerateFromRoot(rng.NextU32(graph.num_nodes()), rng, out));
  }
}
BENCHMARK(BM_RrSetIcConstant);

void BM_RrSetLt(benchmark::State& state) {
  const Graph& graph = LtGraph();
  RrSampler sampler(graph, DiffusionKind::kLinearThreshold);
  Rng rng(7);
  std::vector<NodeId> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.GenerateFromRoot(rng.NextU32(graph.num_nodes()), rng, out));
  }
}
BENCHMARK(BM_RrSetLt);

void BM_GreedyMaxCover(benchmark::State& state) {
  const Graph& graph = WcGraph();
  RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
  Rng rng(8);
  RrCollection collection(graph.num_nodes());
  std::vector<NodeId> out;
  for (int i = 0; i < 20000; ++i) {
    sampler.GenerateFromRoot(rng.NextU32(graph.num_nodes()), rng, out);
    collection.AppendSet(out);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(collection.GreedyMaxCover(50));
  }
}
BENCHMARK(BM_GreedyMaxCover);

// Floor rows: one 1024-simulation estimate of the top-10 out-degree seeds
// on BA-100K x 3 under WC, scalar against fused on one lane; CI requires
// scalar >= 4x fused. BarabasiAlbert emits arcs new -> old, which under WC
// kills every forward cascade (each arc targets a hub whose in-degree
// makes its weight negligible). Flipping the arcs lets hubs broadcast to
// their attachers, as in a follower graph, so the cascades are
// supercritical and the rows time the frontier loops, not per-estimate
// setup. The nethept rows above are too small for that: fused reads only
// ~1.3x scalar per simulation there.
constexpr uint32_t kFloorMcSimulations = 1024;
constexpr uint64_t kFloorMcSeed = 8;

struct McFloorFixture {
  Graph graph;
  std::vector<NodeId> seeds;

  McFloorFixture() {
    Rng rng(7);
    EdgeList list = BarabasiAlbert(100000, 3, rng);
    for (Arc& arc : list.arcs) std::swap(arc.source, arc.target);
    graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
    AssignWeightedCascade(graph);
    seeds.resize(graph.num_nodes());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) seeds[v] = v;
    std::partial_sort(seeds.begin(), seeds.begin() + 10, seeds.end(),
                      [&](NodeId a, NodeId b) {
                        if (graph.OutDegree(a) != graph.OutDegree(b)) {
                          return graph.OutDegree(a) > graph.OutDegree(b);
                        }
                        return a < b;
                      });
    seeds.resize(10);
  }
};

McFloorFixture& McFloor() {
  static McFloorFixture& fixture = *new McFloorFixture();
  return fixture;
}

// Simulation i runs one CascadeContext cascade on Rng::ForStream(seed, i).
void BM_FloorMcScalar(benchmark::State& state) {
  const McFloorFixture& fixture = McFloor();
  for (auto _ : state) {
    Timer timer;
    CascadeContext context(fixture.graph.num_nodes());
    std::vector<NodeId> samples;
    samples.reserve(kFloorMcSimulations);
    for (uint32_t i = 0; i < kFloorMcSimulations; ++i) {
      Rng rng = Rng::ForStream(kFloorMcSeed, i);
      samples.push_back(context.Simulate(fixture.graph,
                                         DiffusionKind::kIndependentCascade,
                                         fixture.seeds, rng));
    }
    benchmark::DoNotOptimize(SpreadEstimate::FromSamples(samples).mean);
    state.SetIterationTime(timer.Seconds());
  }
}
BENCHMARK(BM_FloorMcScalar)->Apply(FloorRow)->Repetitions(3);

void BM_FloorMcFused(benchmark::State& state) {
  const McFloorFixture& fixture = McFloor();
  SpreadOptions options;
  options.simulations = kFloorMcSimulations;
  options.seed = kFloorMcSeed;
  for (auto _ : state) {
    Timer timer;
    benchmark::DoNotOptimize(
        EstimateSpread(fixture.graph, DiffusionKind::kIndependentCascade,
                       fixture.seeds, options)
            .mean);
    state.SetIterationTime(timer.Seconds());
  }
}
BENCHMARK(BM_FloorMcFused)->Apply(FloorRow)->Repetitions(3);

}  // namespace
}  // namespace imbench
