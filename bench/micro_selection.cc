// Ablation micro benchmarks for the seed-selection infrastructure:
//   * lazy (CELF) greedy vs exhaustive greedy over the same snapshot
//     oracle — quantifies the submodularity pruning;
//   * RR greedy max-cover on the flat arenas vs the legacy layout, and the
//     build+cover floor rows CI gates.

#include <benchmark/benchmark.h>

#include "algorithms/lazy_queue.h"
#include "algorithms/snapshots.h"
#include "bench/legacy_rr_corpus.h"
#include "bench/micro_floor.h"
#include "common/timer.h"
#include "diffusion/rr_sets.h"
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

// A deterministic snapshot-coverage oracle (StaticGreedy's inner state):
// gain(v) = uncovered nodes reachable from v, averaged over R snapshots.
class SnapshotOracle {
 public:
  SnapshotOracle(const Graph& graph, uint32_t snapshots)
      : num_nodes_(graph.num_nodes()), visited_(graph.num_nodes(), 0) {
    Rng rng(7);
    AdjScratch scratch;
    for (uint32_t i = 0; i < snapshots; ++i) {
      snapshots_.push_back(SampleSnapshot(graph, rng, scratch));
      covered_.emplace_back(graph.num_nodes(), 0);
    }
  }

  void Reset() {
    for (auto& cov : covered_) std::fill(cov.begin(), cov.end(), 0);
  }

  double Gain(NodeId v) {
    uint64_t total = 0;
    for (size_t i = 0; i < snapshots_.size(); ++i) {
      total += Walk(i, v, false);
    }
    return static_cast<double>(total) / snapshots_.size();
  }
  void Commit(NodeId v) {
    for (size_t i = 0; i < snapshots_.size(); ++i) Walk(i, v, true);
  }

 private:
  uint32_t Walk(size_t i, NodeId v, bool mark) {
    const Snapshot& snap = snapshots_[i];
    auto& cov = covered_[i];
    if (cov[v]) return 0;
    ++epoch_;
    queue_.clear();
    queue_.push_back(v);
    visited_[v] = epoch_;
    uint32_t count = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const NodeId u = queue_[head];
      ++count;
      if (mark) cov[u] = 1;
      for (uint32_t e = snap.offsets[u]; e < snap.offsets[u + 1]; ++e) {
        const NodeId w = snap.targets[e];
        if (visited_[w] == epoch_ || cov[w]) continue;
        visited_[w] = epoch_;
        queue_.push_back(w);
      }
    }
    return count;
  }

  NodeId num_nodes_;
  std::vector<Snapshot> snapshots_;
  std::vector<std::vector<uint8_t>> covered_;
  std::vector<uint32_t> visited_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;
};

constexpr uint32_t kSnapshots = 50;
constexpr uint32_t kSeeds = 25;

void BM_SelectionLazyCelf(benchmark::State& state) {
  SnapshotOracle oracle(WcGraph(), kSnapshots);
  for (auto _ : state) {
    oracle.Reset();
    benchmark::DoNotOptimize(CelfSelect(
        WcGraph().num_nodes(), kSeeds,
        [&](NodeId v) { return oracle.Gain(v); },
        [&](NodeId v) { oracle.Commit(v); }));
  }
}
BENCHMARK(BM_SelectionLazyCelf)->Unit(benchmark::kMillisecond);

// Ablation: exhaustive greedy re-evaluates every node each round.
void BM_SelectionExhaustiveGreedy(benchmark::State& state) {
  SnapshotOracle oracle(WcGraph(), kSnapshots);
  const NodeId n = WcGraph().num_nodes();
  for (auto _ : state) {
    oracle.Reset();
    std::vector<uint8_t> chosen(n, 0);
    std::vector<NodeId> seeds;
    for (uint32_t round = 0; round < kSeeds; ++round) {
      NodeId best = kInvalidNode;
      double best_gain = -1;
      for (NodeId v = 0; v < n; ++v) {
        if (chosen[v]) continue;
        const double gain = oracle.Gain(v);
        if (gain > best_gain) {
          best_gain = gain;
          best = v;
        }
      }
      chosen[best] = 1;
      oracle.Commit(best);
      seeds.push_back(best);
    }
    benchmark::DoNotOptimize(seeds);
  }
}
BENCHMARK(BM_SelectionExhaustiveGreedy)->Unit(benchmark::kMillisecond);

RrCollection& Corpus() {
  static RrCollection& corpus = *new RrCollection([] {
    RrCollection c(WcGraph().num_nodes());
    RrSampler sampler(WcGraph(), DiffusionKind::kIndependentCascade);
    Rng rng(9);
    std::vector<NodeId> out;
    for (int i = 0; i < 50000; ++i) {
      sampler.GenerateFromRoot(rng.NextU32(WcGraph().num_nodes()), rng,
                               out);
      c.AppendSet(out);
    }
    return c;
  }());
  return corpus;
}

void BM_MaxCoverFlat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Corpus().GreedyMaxCover(kSeeds));
  }
}
BENCHMARK(BM_MaxCoverFlat)->Unit(benchmark::kMillisecond);

// Ablation against the pre-flattening layout: the identical corpus held as
// vector-of-vectors with an eagerly maintained inverted index, covered by
// its original lazy-heap greedy (same seeds). The delta against
// BM_MaxCoverFlat is the layout win (contiguous spans vs two-level pointer
// chasing) plus the degree buckets' missing log factor.
LegacyRrCorpus& LegacyCorpus() {
  static LegacyRrCorpus& corpus = *new LegacyRrCorpus([] {
    LegacyRrCorpus c(WcGraph().num_nodes());
    RrSampler sampler(WcGraph(), DiffusionKind::kIndependentCascade);
    Rng rng(9);
    std::vector<NodeId> out;
    for (int i = 0; i < 50000; ++i) {
      sampler.GenerateFromRoot(rng.NextU32(WcGraph().num_nodes()), rng,
                               out);
      c.AppendSet(out);
    }
    return c;
  }());
  return corpus;
}

void BM_MaxCoverLegacyLayout(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(LegacyCorpus().GreedyMaxCover(kSeeds));
  }
}
BENCHMARK(BM_MaxCoverLegacyLayout)->Unit(benchmark::kMillisecond);

// Corpus ingestion: flat-arena AppendSet (bulk copy into one arena) vs the
// legacy per-set vector move + per-member inverted-index pushes.
void BM_CorpusBuildFlat(benchmark::State& state) {
  RrSampler sampler(WcGraph(), DiffusionKind::kIndependentCascade);
  std::vector<NodeId> out;
  for (auto _ : state) {
    RrCollection c(WcGraph().num_nodes());
    Rng rng(9);
    for (int i = 0; i < 20000; ++i) {
      sampler.GenerateFromRoot(rng.NextU32(WcGraph().num_nodes()), rng,
                               out);
      c.AppendSet(out);
    }
    benchmark::DoNotOptimize(c.TotalEntries());
  }
}
BENCHMARK(BM_CorpusBuildFlat)->Unit(benchmark::kMillisecond);

void BM_CorpusBuildLegacyLayout(benchmark::State& state) {
  RrSampler sampler(WcGraph(), DiffusionKind::kIndependentCascade);
  for (auto _ : state) {
    LegacyRrCorpus c(WcGraph().num_nodes());
    Rng rng(9);
    std::vector<NodeId> out;
    for (int i = 0; i < 20000; ++i) {
      sampler.GenerateFromRoot(rng.NextU32(WcGraph().num_nodes()), rng,
                               out);
      c.Add(std::move(out));
      out.clear();
    }
    benchmark::DoNotOptimize(c.TotalEntries());
  }
}
BENCHMARK(BM_CorpusBuildLegacyLayout)->Unit(benchmark::kMillisecond);

// Floor rows: 500K RR sets drawn by RrSampler::GenerateStream on BA-100K x 5
// under WC, ingested and then covered once at k = 50. Each row times the
// build and the first cover, so the flat layout pays its deferred
// inverted-index build and the legacy layout its eager one. CI requires
// legacy >= 1.2x flat and fewer corpus_bytes (after the cover, index
// included) for flat.
constexpr uint64_t kFloorRrSets = 500000;
constexpr uint32_t kFloorRrSeeds = 50;
constexpr uint64_t kFloorRrSeed = 8;

const Graph& RrFloorGraph() {
  static Graph& graph = *new Graph([] {
    Rng rng(7);
    EdgeList list = BarabasiAlbert(100000, 5, rng);
    Graph g = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
    AssignWeightedCascade(g);
    return g;
  }());
  return graph;
}

void BM_FloorRrCorpusFlat(benchmark::State& state) {
  const Graph& graph = RrFloorGraph();
  for (auto _ : state) {
    RrCollection corpus(graph.num_nodes());
    RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
    std::vector<NodeId> scratch;
    Timer timer;
    for (uint64_t i = 0; i < kFloorRrSets; ++i) {
      sampler.GenerateStream(kFloorRrSeed, i, scratch);
      corpus.AppendSet(scratch);
    }
    benchmark::DoNotOptimize(corpus.GreedyMaxCover(kFloorRrSeeds));
    state.SetIterationTime(timer.Seconds());
    state.counters["corpus_bytes"] =
        static_cast<double>(corpus.MemoryBytes());
  }
}
BENCHMARK(BM_FloorRrCorpusFlat)->Apply(FloorRow)->Repetitions(3);

// The legacy ingestion moves a fresh vector in per set.
void BM_FloorRrCorpusLegacy(benchmark::State& state) {
  const Graph& graph = RrFloorGraph();
  for (auto _ : state) {
    LegacyRrCorpus corpus(graph.num_nodes());
    RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
    std::vector<NodeId> set;
    Timer timer;
    for (uint64_t i = 0; i < kFloorRrSets; ++i) {
      sampler.GenerateStream(kFloorRrSeed, i, set);
      corpus.Add(std::move(set));
      set = std::vector<NodeId>();
    }
    benchmark::DoNotOptimize(corpus.GreedyMaxCover(kFloorRrSeeds));
    state.SetIterationTime(timer.Seconds());
    state.counters["corpus_bytes"] =
        static_cast<double>(corpus.MemoryBytes());
  }
}
BENCHMARK(BM_FloorRrCorpusLegacy)->Apply(FloorRow)->Repetitions(3);

}  // namespace
}  // namespace imbench
