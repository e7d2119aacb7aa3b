// Perf smoke for the bit-parallel fused MC kernels: builds a BA graph
// under WC weights, estimates the spread of the top-degree seed set with
// a scalar baseline (one CascadeContext::Simulate per simulation i on
// Rng::ForStream(seed, i)) and with EstimateSpread's fused kernel, and
// writes the timings and speedup as JSON. CI runs this on BA-100K and archives the JSON
// (BENCH_mc_kernels.json) so the kernel perf trajectory is tracked commit
// over commit, with a hard floor on the fused speedup.
//
//   ./mc_kernel_smoke --nodes=100000 --sims=1024 --k=10 --out=BENCH.json
//
// Correctness gates before any timing is reported:
//   * the fused estimate is bit-identical across thread counts (1 vs 4);
//   * a spot check of fused lanes against FusedScalarReplay on a small
//     subgraph-scale run (the full differential suite lives in
//     tests/fused_cascade_test.cc).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "diffusion/cascade.h"
#include "diffusion/fused_cascade.h"
#include "diffusion/spread.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"

using namespace imbench;

namespace {

// Highest out-degree nodes: a realistic seed set whose cascades actually
// touch a large fraction of the graph, so the timing exercises the
// frontier loops instead of dying out instantly.
std::vector<NodeId> TopDegreeSeeds(const Graph& graph, uint32_t k) {
  std::vector<NodeId> nodes(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes[v] = v;
  std::partial_sort(nodes.begin(), nodes.begin() + k, nodes.end(),
                    [&](NodeId a, NodeId b) {
                      if (graph.OutDegree(a) != graph.OutDegree(b)) {
                        return graph.OutDegree(a) > graph.OutDegree(b);
                      }
                      return a < b;
                    });
  nodes.resize(k);
  return nodes;
}

// The scalar baseline: simulation i runs one cascade on its own stream
// Rng::ForStream(seed, i), and the samples aggregate in index order.
SpreadEstimate ScalarEstimate(const Graph& graph,
                              std::span<const NodeId> seeds,
                              uint32_t simulations, uint64_t seed) {
  CascadeContext context(graph.num_nodes());
  std::vector<NodeId> samples;
  samples.reserve(simulations);
  for (uint32_t i = 0; i < simulations; ++i) {
    Rng rng = Rng::ForStream(seed, i);
    samples.push_back(context.Simulate(
        graph, DiffusionKind::kIndependentCascade, seeds, rng));
  }
  return SpreadEstimate::FromSamples(samples);
}

double MeasureSeconds(const std::function<SpreadEstimate()>& estimate,
                      int64_t reps, SpreadEstimate* est) {
  Timer timer;
  *est = estimate();
  double best = timer.Seconds();
  for (int64_t rep = 1; rep < reps; ++rep) {
    timer.Restart();
    const SpreadEstimate again = estimate();
    best = std::min(best, timer.Seconds());
    if (again.mean != est->mean) {
      std::fprintf(stderr, "FATAL: estimate not reproducible across reps\n");
      std::exit(1);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("scalar vs fused MC spread kernel perf smoke");
  int64_t* nodes = flags.AddInt("nodes", 100000, "BA graph nodes");
  // Default of 3 attachments gives a ~300K-edge graph with average degree
  // near the paper's sparse benchmark networks (NetHEPT is ~4); denser
  // graphs shift both engines toward the same memory-bound frontier
  // bookkeeping and compress the measurable kernel gap.
  int64_t* attach = flags.AddInt("attach", 3, "BA attachments per node");
  int64_t* sims = flags.AddInt("sims", 1024, "MC simulations per estimate");
  int64_t* k = flags.AddInt("k", 10, "seed-set size (top out-degree nodes)");
  int64_t* seed = flags.AddInt("seed", 7, "RNG seed");
  int64_t* reps = flags.AddInt("reps", 3, "repetitions (min time is kept)");
  std::string* out =
      flags.AddString("out", "BENCH_mc_kernels.json", "JSON output path");
  flags.Parse(argc, argv);

  Rng graph_rng(static_cast<uint64_t>(*seed));
  EdgeList list = BarabasiAlbert(static_cast<NodeId>(*nodes),
                                 static_cast<uint32_t>(*attach), graph_rng);
  // BarabasiAlbert emits arcs new -> old, which under WC weights kills
  // every forward cascade (each arc targets a hub whose in-degree makes
  // its weight negligible). Flip the arcs so hubs broadcast to their
  // attachers — the influence direction of a real follower graph — which
  // gives every node in-degree ~attach, i.e. WC weights ~1/attach, and
  // supercritical cascades from the top-degree seeds. Without this the
  // "benchmark" would time per-estimate setup, not kernel throughput.
  for (Arc& arc : list.arcs) std::swap(arc.source, arc.target);
  Graph graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  AssignWeightedCascade(graph);
  std::printf("graph: %u nodes, %llu edges (BA, WC weights)\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  const uint32_t simulations = static_cast<uint32_t>(*sims);
  const uint64_t mc_seed = static_cast<uint64_t>(*seed) + 1;
  const std::vector<NodeId> seeds =
      TopDegreeSeeds(graph, static_cast<uint32_t>(*k));

  // --- Gate 1: fused lanes replay bit-for-bit (spot check, block 0). ---
  {
    FusedCascadeContext context(graph);
    NodeId gamma[kFusedLanes];
    context.RunBlock(DiffusionKind::kIndependentCascade, seeds, mc_seed, 0,
                     kFusedLanes, gamma);
    for (const uint32_t lane : {0u, 17u, 63u}) {
      const NodeId replay = FusedScalarReplay(
          graph, DiffusionKind::kIndependentCascade, seeds, mc_seed, lane);
      if (gamma[lane] != replay) {
        std::fprintf(stderr,
                     "FATAL: fused lane %u diverged from scalar replay "
                     "(%u vs %u)\n",
                     lane, gamma[lane], replay);
        return 1;
      }
    }
  }

  SpreadOptions fused_options;
  fused_options.simulations = simulations;
  fused_options.seed = mc_seed;

  // --- Gate 2: fused estimate is thread-count invariant. ---
  SpreadEstimate fused_seq;
  const double fused_seconds = MeasureSeconds(
      [&] {
        return EstimateSpread(graph, DiffusionKind::kIndependentCascade,
                              seeds, fused_options);
      },
      *reps, &fused_seq);
  {
    ThreadPool pool(3);
    SpreadOptions threaded = fused_options;
    threaded.threads = 4;
    threaded.pool = &pool;
    const SpreadEstimate fused_par = EstimateSpread(
        graph, DiffusionKind::kIndependentCascade, seeds, threaded);
    if (fused_par.mean != fused_seq.mean ||
        fused_par.stddev != fused_seq.stddev) {
      std::fprintf(stderr,
                   "FATAL: fused estimate not thread-invariant "
                   "(%.17g vs %.17g)\n",
                   fused_par.mean, fused_seq.mean);
      return 1;
    }
  }

  SpreadEstimate scalar_est;
  const double scalar_seconds = MeasureSeconds(
      [&] { return ScalarEstimate(graph, seeds, simulations, mc_seed); },
      *reps, &scalar_est);

  // Both kernels are unbiased estimators of the same σ(S); they draw
  // different coin streams, so agree statistically, not bitwise.
  const double scalar_stderr = scalar_est.StdError();
  const double fused_stderr = fused_seq.StdError();
  const double gap = std::abs(scalar_est.mean - fused_seq.mean);
  const double tolerance = 6.0 * (scalar_stderr + fused_stderr) + 1e-6;
  if (gap > tolerance) {
    std::fprintf(stderr,
                 "FATAL: engines disagree: scalar %.3f vs fused %.3f "
                 "(gap %.3f, tolerance %.3f)\n",
                 scalar_est.mean, fused_seq.mean, gap, tolerance);
    return 1;
  }

  const double speedup = scalar_seconds / fused_seconds;
  std::printf("spread: scalar %.1f +/- %.2f, fused %.1f +/- %.2f (%u sims)\n",
              scalar_est.mean, scalar_stderr, fused_seq.mean, fused_stderr,
              simulations);
  std::printf("time: scalar %.3fs vs fused %.3fs (%.2fx)\n", scalar_seconds,
              fused_seconds, speedup);

  std::FILE* f = std::fopen(out->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out->c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"graph\": {\"generator\": \"ba\", \"nodes\": %u, "
               "\"edges\": %llu, \"weights\": \"WC\"},\n"
               "  \"simulations\": %u,\n"
               "  \"k\": %zu,\n"
               "  \"scalar\": {\"seconds\": %.6f, \"mean\": %.6f, "
               "\"std_error\": %.6f},\n"
               "  \"fused\": {\"seconds\": %.6f, \"mean\": %.6f, "
               "\"std_error\": %.6f},\n"
               "  \"speedup\": %.3f\n"
               "}\n",
               graph.num_nodes(),
               static_cast<unsigned long long>(graph.num_edges()),
               simulations, seeds.size(), scalar_seconds, scalar_est.mean,
               scalar_stderr, fused_seconds, fused_seq.mean, fused_stderr,
               speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out->c_str());
  return 0;
}
