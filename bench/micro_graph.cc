// Micro benchmarks for the graph substrate: generators, CSR construction,
// weight assignment, SCC decomposition, and the compact (mmap'd `.imgrf`)
// backend: compressed-decode throughput against the raw CSR scan, plus
// cold-vs-warm page-in ablations (DropPages between iterations), and the
// compression and RR-sampling floor rows CI gates.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench/micro_floor.h"
#include "common/timer.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "graph/compact_graph.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "graph/graph_view.h"
#include "graph/scc.h"
#include "graph/weights.h"

namespace imbench {
namespace {

constexpr NodeId kNodes = 10000;
constexpr uint64_t kArcs = 50000;

void BM_GenerateRmat(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(Rmat(kNodes, kArcs, RmatParams{}, rng));
  }
}
BENCHMARK(BM_GenerateRmat);

void BM_GenerateErdosRenyi(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(2);
    benchmark::DoNotOptimize(ErdosRenyi(kNodes, kArcs, rng));
  }
}
BENCHMARK(BM_GenerateErdosRenyi);

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(BarabasiAlbert(kNodes, 5, rng));
  }
}
BENCHMARK(BM_GenerateBarabasiAlbert);

void BM_GenerateChungLu(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(ChungLu(kNodes, kArcs, 2.5, rng));
  }
}
BENCHMARK(BM_GenerateChungLu);

void BM_BuildCsr(benchmark::State& state) {
  Rng rng(5);
  const EdgeList list = Rmat(kNodes, kArcs, RmatParams{}, rng);
  for (auto _ : state) {
    std::vector<Arc> arcs = list.arcs;
    benchmark::DoNotOptimize(Graph::FromArcs(list.num_nodes, std::move(arcs)));
  }
}
BENCHMARK(BM_BuildCsr);

void BM_AssignWeightedCascade(benchmark::State& state) {
  Graph graph = MakeDataset("hepph", DatasetScale::kBench);
  for (auto _ : state) {
    AssignWeightedCascade(graph);
    benchmark::DoNotOptimize(graph.weights().data());
  }
}
BENCHMARK(BM_AssignWeightedCascade);

void BM_Scc(benchmark::State& state) {
  Graph graph = MakeDataset("hepph", DatasetScale::kBench);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StronglyConnectedComponents(graph));
  }
}
BENCHMARK(BM_Scc);

// Shared fixture for the compact-backend benchmarks: one weighted graph
// and its `.imgrf` image, built once for the whole binary.
struct CompactFixture {
  Graph graph;
  CompactGraph compact;
  std::string path;

  CompactFixture() {
    // BA-100K x 8: ~800K edges, a ~10 MB mapping — big enough that the
    // cold-page ablation actually faults thousands of pages per sweep.
    Rng rng(7);
    EdgeList list = BarabasiAlbert(100000, 8, rng);
    graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
    AssignWeightedCascade(graph);
    path = "/tmp/micro_graph_fixture.imgrf";
    std::string error;
    if (!WriteGraphFile(graph, WeightModel::kWc, path, &error) ||
        CompactGraph::Open(path, &compact, &error) != SealedStatus::kOk) {
      std::fprintf(stderr, "micro_graph: compact fixture failed: %s\n",
                   error.c_str());
      std::abort();
    }
  }
  ~CompactFixture() { std::remove(path.c_str()); }
};

CompactFixture& Fixture() {
  static CompactFixture fixture;
  return fixture;
}

// Full out-adjacency sweep through a GraphView; the accumulator keeps the
// decode from being optimized away and is identical for both backends so
// the two timings are directly comparable.
uint64_t SweepOutAdjacency(const GraphView& view, AdjScratch& scratch) {
  uint64_t acc = 0;
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    const AdjView adj = view.Out(u, scratch);
    for (const NodeId v : adj.nodes) acc += v;
    for (const double w : adj.weights) acc += static_cast<uint64_t>(w * 64);
  }
  return acc;
}

// Baseline: raw CSR span scan (what the in-memory fast path costs).
void BM_ScanCsrOutAdjacency(benchmark::State& state) {
  const GraphView view(Fixture().graph);
  AdjScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepOutAdjacency(view, scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().graph.num_edges()));
}
BENCHMARK(BM_ScanCsrOutAdjacency);

// Compressed-decode throughput: same sweep, varint blocks decoded into
// scratch (pages warm after the first iteration).
void BM_DecodeCompactOutAdjacency(benchmark::State& state) {
  const GraphView view(Fixture().compact);
  AdjScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepOutAdjacency(view, scratch));
  }
  state.SetItemsProcessed(
      state.iterations() * static_cast<int64_t>(Fixture().compact.num_edges()));
}
BENCHMARK(BM_DecodeCompactOutAdjacency);

// Warm page-in: the mapping stays resident across iterations, so this is
// pure decode + page-table hits.
void BM_CompactSweepWarmPages(benchmark::State& state) {
  const GraphView view(Fixture().compact);
  AdjScratch scratch;
  benchmark::DoNotOptimize(SweepOutAdjacency(view, scratch));  // prefault
  for (auto _ : state) {
    benchmark::DoNotOptimize(SweepOutAdjacency(view, scratch));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().compact.MappedBytes()));
}
BENCHMARK(BM_CompactSweepWarmPages);

// Cold page-in: resident pages are dropped before every iteration, so each
// sweep re-faults the whole mapping (page-cache-backed minor faults; true
// disk reads depend on the OS cache, which the bench does not flush).
void BM_CompactSweepColdPages(benchmark::State& state) {
  const GraphView view(Fixture().compact);
  AdjScratch scratch;
  for (auto _ : state) {
    state.PauseTiming();
    Fixture().compact.DropPages();
    state.ResumeTiming();
    benchmark::DoNotOptimize(SweepOutAdjacency(view, scratch));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(Fixture().compact.MappedBytes()));
}
BENCHMARK(BM_CompactSweepColdPages);

// Floor rows: 20K RR sets sampled on BA-120K x 16 under WC, on the heap CSR
// and on its mapped `.imgrf` image. Average degree ~16 makes the per-edge
// lanes dominate both footprints, so graph_bytes (heap CSR bytes against
// mapped file bytes) measures the format, not per-node offsets. CI
// requires heap graph_bytes >= 2x compact and compact time <= 1.3x heap.
constexpr uint32_t kFloorRrSets = 20000;

struct RrFloorFixture {
  Graph graph;
  CompactGraph compact;
  std::string path = "/tmp/micro_graph_floor.imgrf";

  RrFloorFixture() {
    Rng rng(7);
    EdgeList list = BarabasiAlbert(120000, 16, rng);
    graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
    AssignWeightedCascade(graph);
    std::string error;
    if (!WriteGraphFile(graph, WeightModel::kWc, path, &error) ||
        CompactGraph::Open(path, &compact, &error) != SealedStatus::kOk) {
      std::fprintf(stderr, "micro_graph: floor fixture failed: %s\n",
                   error.c_str());
      std::abort();
    }
  }
  ~RrFloorFixture() { std::remove(path.c_str()); }
};

RrFloorFixture& RrFloor() {
  static RrFloorFixture fixture;
  return fixture;
}

void RunRrFloor(benchmark::State& state, const GraphView& view,
                uint64_t graph_bytes) {
  for (auto _ : state) {
    RrSampler sampler(view, SamplerOptions{});
    RrCollection corpus(view.num_nodes());
    Timer timer;
    sampler.Generate(/*seed=*/42, kFloorRrSets, corpus, nullptr);
    state.SetIterationTime(timer.Seconds());
  }
  state.counters["graph_bytes"] = static_cast<double>(graph_bytes);
}

void BM_FloorRrSampleHeap(benchmark::State& state) {
  RunRrFloor(state, RrFloor().graph, RrFloor().graph.MemoryBytes());
}
BENCHMARK(BM_FloorRrSampleHeap)->Apply(FloorRow)->Repetitions(5);

void BM_FloorRrSampleCompact(benchmark::State& state) {
  RunRrFloor(state, RrFloor().compact, RrFloor().compact.MappedBytes());
}
BENCHMARK(BM_FloorRrSampleCompact)->Apply(FloorRow)->Repetitions(5);

}  // namespace
}  // namespace imbench
