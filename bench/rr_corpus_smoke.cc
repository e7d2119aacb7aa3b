// Perf smoke for the flat-arena RR corpus (the Fig. 8 hot path): builds a
// BA graph under WC weights, ingests the same deterministic RR-set
// sequence into the flat-arena RrCollection and the pre-flattening
// vector-of-vectors baseline, runs greedy max cover on both, and writes
// the timings, footprints and speedups as JSON. CI runs this on BA-100K
// and archives the JSON (BENCH_rr_corpus.json) so the corpus-layout perf
// trajectory is tracked commit over commit.
//
//   ./rr_corpus_smoke --nodes=100000 --sets=100000 --k=50 --out=BENCH.json
//
// Determinism note: both layouts consume RrSampler::GenerateStream(seed, i)
// with the same seed, so they hold byte-identical corpora; the seeds and
// covered fractions are asserted equal before anything is reported.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/legacy_rr_corpus.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "diffusion/rr_sets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"

using namespace imbench;

namespace {

struct LayoutStats {
  double build_seconds = 0;
  // First max-cover call. For the flat layout this includes the on-demand
  // CSR inverted-index build (the legacy layout paid index maintenance
  // during ingestion instead), so build+cover sums are apples-to-apples.
  double cover_seconds = 0;
  double cover_warm_seconds = 0;  // min over the repeat calls (index hot)
  uint64_t memory_bytes = 0;
  uint64_t total_entries = 0;
  std::vector<NodeId> seeds;
  double covered_fraction = 0;
};

template <typename Corpus>
void MeasureCover(Corpus& corpus, uint32_t k, int64_t reps,
                  LayoutStats& stats) {
  Timer timer;
  stats.seeds = corpus.GreedyMaxCover(k, &stats.covered_fraction);
  stats.cover_seconds = timer.Seconds();
  stats.cover_warm_seconds = stats.cover_seconds;
  for (int64_t rep = 1; rep < reps; ++rep) {
    timer.Restart();
    stats.seeds = corpus.GreedyMaxCover(k, &stats.covered_fraction);
    stats.cover_warm_seconds =
        std::min(stats.cover_warm_seconds, timer.Seconds());
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("flat-arena vs legacy RR corpus perf smoke");
  int64_t* nodes = flags.AddInt("nodes", 100000, "BA graph nodes");
  int64_t* attach = flags.AddInt("attach", 5, "BA attachments per node");
  int64_t* sets = flags.AddInt("sets", 100000, "RR sets to generate");
  int64_t* k = flags.AddInt("k", 50, "greedy max-cover seeds");
  int64_t* seed = flags.AddInt("seed", 7, "RNG seed");
  int64_t* cover_reps =
      flags.AddInt("cover-reps", 3, "max-cover repetitions (min is kept)");
  std::string* out =
      flags.AddString("out", "BENCH_rr_corpus.json", "JSON output path");
  flags.Parse(argc, argv);

  Rng graph_rng(static_cast<uint64_t>(*seed));
  EdgeList list = BarabasiAlbert(static_cast<NodeId>(*nodes),
                                 static_cast<uint32_t>(*attach), graph_rng);
  Graph graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  AssignWeightedCascade(graph);
  std::printf("graph: %u nodes, %llu edges (BA, WC weights)\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  const uint64_t num_sets = static_cast<uint64_t>(*sets);
  const uint32_t num_seeds = static_cast<uint32_t>(*k);
  const uint64_t rr_seed = static_cast<uint64_t>(*seed) + 1;

  // --- Flat arena: the production path (sampler -> AppendSet). ---
  LayoutStats flat;
  RrCollection corpus(graph.num_nodes());
  {
    RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
    std::vector<NodeId> scratch;
    Timer timer;
    for (uint64_t i = 0; i < num_sets; ++i) {
      sampler.GenerateStream(rr_seed, i, scratch);
      corpus.AppendSet(scratch);
    }
    flat.build_seconds = timer.Seconds();
  }
  flat.total_entries = corpus.TotalEntries();
  MeasureCover(corpus, num_seeds, *cover_reps, flat);
  flat.memory_bytes = corpus.MemoryBytes();

  // --- Legacy layout: per-set vectors + eager inverted index, exactly the
  // pre-flattening ingestion (a fresh vector moved in per set). ---
  LayoutStats legacy;
  LegacyRrCorpus baseline(graph.num_nodes());
  {
    RrSampler sampler(graph, DiffusionKind::kIndependentCascade);
    std::vector<NodeId> set;
    Timer timer;
    for (uint64_t i = 0; i < num_sets; ++i) {
      sampler.GenerateStream(rr_seed, i, set);
      baseline.Add(std::move(set));
      set = std::vector<NodeId>();
    }
    legacy.build_seconds = timer.Seconds();
  }
  legacy.total_entries = baseline.TotalEntries();
  MeasureCover(baseline, num_seeds, *cover_reps, legacy);
  legacy.memory_bytes = baseline.MemoryBytes();

  // The layouts must be observationally identical before any speedup claim
  // means anything.
  if (flat.total_entries != legacy.total_entries ||
      flat.seeds != legacy.seeds ||
      flat.covered_fraction != legacy.covered_fraction) {
    std::fprintf(stderr,
                 "FATAL: layouts diverged (entries %llu vs %llu, seeds %zu "
                 "vs %zu, fraction %.17g vs %.17g)\n",
                 static_cast<unsigned long long>(flat.total_entries),
                 static_cast<unsigned long long>(legacy.total_entries),
                 flat.seeds.size(), legacy.seeds.size(),
                 flat.covered_fraction, legacy.covered_fraction);
    return 1;
  }

  const double build_speedup = legacy.build_seconds / flat.build_seconds;
  const double cover_speedup = legacy.cover_seconds / flat.cover_seconds;
  const double warm_cover_speedup =
      legacy.cover_warm_seconds / flat.cover_warm_seconds;
  // The headline number: total build + first-cover time, which charges the
  // flat layout for its deferred index build and the legacy layout for its
  // eager one.
  const double total_speedup =
      (legacy.build_seconds + legacy.cover_seconds) /
      (flat.build_seconds + flat.cover_seconds);
  const double memory_ratio = static_cast<double>(legacy.memory_bytes) /
                              static_cast<double>(flat.memory_bytes);
  std::printf("build: flat %.3fs vs legacy %.3fs (%.2fx)\n",
              flat.build_seconds, legacy.build_seconds, build_speedup);
  std::printf("cover (cold index): flat %.3fs vs legacy %.3fs (%.2fx)\n",
              flat.cover_seconds, legacy.cover_seconds, cover_speedup);
  std::printf("cover (warm index): flat %.3fs vs legacy %.3fs (%.2fx)\n",
              flat.cover_warm_seconds, legacy.cover_warm_seconds,
              warm_cover_speedup);
  std::printf("build+cover: %.2fx\n", total_speedup);
  std::printf("memory: flat %.1f MB vs legacy %.1f MB (%.2fx)\n",
              static_cast<double>(flat.memory_bytes) / 1048576.0,
              static_cast<double>(legacy.memory_bytes) / 1048576.0,
              memory_ratio);

  std::FILE* f = std::fopen(out->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out->c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"graph\": {\"generator\": \"ba\", \"nodes\": %u, "
               "\"edges\": %llu, \"weights\": \"WC\"},\n"
               "  \"sets\": %llu,\n"
               "  \"k\": %u,\n"
               "  \"total_entries\": %llu,\n"
               "  \"flat\": {\"build_seconds\": %.6f, \"cover_seconds\": "
               "%.6f, \"cover_warm_seconds\": %.6f, \"memory_bytes\": "
               "%llu},\n"
               "  \"legacy\": {\"build_seconds\": %.6f, \"cover_seconds\": "
               "%.6f, \"cover_warm_seconds\": %.6f, \"memory_bytes\": "
               "%llu},\n"
               "  \"speedup\": {\"build\": %.3f, \"cover\": %.3f, "
               "\"cover_warm\": %.3f, \"build_plus_cover\": %.3f, "
               "\"memory_ratio\": %.3f}\n"
               "}\n",
               graph.num_nodes(),
               static_cast<unsigned long long>(graph.num_edges()),
               static_cast<unsigned long long>(num_sets), num_seeds,
               static_cast<unsigned long long>(flat.total_entries),
               flat.build_seconds, flat.cover_seconds,
               flat.cover_warm_seconds,
               static_cast<unsigned long long>(flat.memory_bytes),
               legacy.build_seconds, legacy.cover_seconds,
               legacy.cover_warm_seconds,
               static_cast<unsigned long long>(legacy.memory_bytes),
               build_speedup, cover_speedup, warm_cover_speedup,
               total_speedup, memory_ratio);
  std::fclose(f);
  std::printf("wrote %s\n", out->c_str());
  return 0;
}
