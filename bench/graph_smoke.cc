// Perf smoke for the out-of-core graph substrate: builds a BA/WC graph,
// writes it to `.imgrf`, and measures (a) the compression ratio of the
// mapped file against the heap CSR and (b) the decode overhead the compact
// backend adds to RR-set generation — the operation every RIS algorithm
// actually pays for. CI runs this and archives BENCH_graph.json with hard
// floors: compression >= 2x, decode overhead <= 1.3x.
//
//   ./graph_smoke --nodes=120000 --attach=16 --sets=20000 --out=BENCH.json
//
// Correctness gates before any timing is reported:
//   * the file round-trips (open succeeds, fingerprint matches);
//   * the RR corpus generated on the compact backend is bit-identical to
//     the in-memory corpus (the full differential suite lives in
//     tests/determinism_test.cc).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "diffusion/rr_sets.h"
#include "graph/compact_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_file.h"
#include "graph/graph_view.h"
#include "graph/weights.h"

using namespace imbench;

namespace {

std::vector<std::vector<NodeId>> CorpusOf(const RrCollection& corpus) {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto span = corpus.Set(i);
    sets.emplace_back(span.begin(), span.end());
  }
  return sets;
}

// Minimum-of-reps RR generation time; the corpus of the first rep is
// returned so the caller can differential-check backends.
template <typename Backend>
double MeasureRrSeconds(const Backend& backend, NodeId num_nodes,
                        uint32_t sets, int64_t reps,
                        std::vector<std::vector<NodeId>>* corpus_out) {
  SamplerOptions options;
  double best = 0;
  for (int64_t rep = 0; rep < reps; ++rep) {
    RrSampler sampler(backend, options);
    RrCollection corpus(num_nodes);
    Timer timer;
    sampler.Generate(/*seed=*/42, sets, corpus, nullptr);
    const double seconds = timer.Seconds();
    if (rep == 0) {
      best = seconds;
      if (corpus_out != nullptr) *corpus_out = CorpusOf(corpus);
    } else if (seconds < best) {
      best = seconds;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("compact graph substrate perf smoke");
  // 16 attachments per node give average degree ~16: dense enough that the
  // per-edge lanes dominate both footprints and the >=2x compression floor
  // measures the format, not per-node offset overhead.
  int64_t* nodes = flags.AddInt("nodes", 120000, "BA graph nodes");
  int64_t* attach = flags.AddInt("attach", 16, "BA attachments per node");
  int64_t* sets = flags.AddInt("sets", 20000, "RR sets per timing rep");
  int64_t* seed = flags.AddInt("seed", 7, "RNG seed");
  int64_t* reps = flags.AddInt("reps", 3, "repetitions (min time is kept)");
  std::string* file = flags.AddString(
      "graph-file", "/tmp/graph_smoke.imgrf", "scratch .imgrf path");
  std::string* out =
      flags.AddString("out", "BENCH_graph.json", "JSON output path");
  flags.Parse(argc, argv);

  Rng graph_rng(static_cast<uint64_t>(*seed));
  EdgeList list = BarabasiAlbert(static_cast<NodeId>(*nodes),
                                 static_cast<uint32_t>(*attach), graph_rng);
  Graph graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  AssignWeightedCascade(graph);
  std::printf("graph: %u nodes, %llu edges (BA, WC weights)\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  std::string error;
  if (!WriteGraphFile(graph, WeightModel::kWc, *file, &error)) {
    std::fprintf(stderr, "FATAL: cannot write %s: %s\n", file->c_str(),
                 error.c_str());
    return 1;
  }
  CompactGraph compact;
  if (CompactGraph::Open(*file, &compact, &error) != SealedStatus::kOk) {
    std::fprintf(stderr, "FATAL: cannot open %s: %s\n", file->c_str(),
                 error.c_str());
    return 1;
  }

  // --- Gate 1: the file is the same graph. ---
  if (compact.fingerprint() != GraphFingerprint(graph)) {
    std::fprintf(stderr, "FATAL: fingerprint mismatch after roundtrip\n");
    return 1;
  }

  const uint64_t csr_bytes = graph.MemoryBytes();
  const uint64_t mapped_bytes = compact.MappedBytes();
  const double compression =
      static_cast<double>(csr_bytes) / static_cast<double>(mapped_bytes);
  std::printf("footprint: heap CSR %.2f MB vs mapped file %.2f MB (%.2fx)\n",
              csr_bytes / 1048576.0, mapped_bytes / 1048576.0, compression);

  const uint32_t num_sets = static_cast<uint32_t>(*sets);
  std::vector<std::vector<NodeId>> memory_corpus, compact_corpus;
  const double memory_seconds = MeasureRrSeconds(
      graph, graph.num_nodes(), num_sets, *reps, &memory_corpus);
  const double compact_seconds = MeasureRrSeconds(
      compact, compact.num_nodes(), num_sets, *reps, &compact_corpus);

  // --- Gate 2: backends generate bit-identical corpora. ---
  if (memory_corpus != compact_corpus) {
    std::fprintf(stderr, "FATAL: RR corpora diverge across backends\n");
    return 1;
  }

  const double overhead = compact_seconds / memory_seconds;
  std::printf(
      "rr sampling: in-memory %.3fs vs compact %.3fs (%.2fx overhead, "
      "%u sets)\n",
      memory_seconds, compact_seconds, overhead, num_sets);

  std::FILE* f = std::fopen(out->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out->c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"graph\": {\"generator\": \"ba\", \"nodes\": %u, "
      "\"edges\": %llu, \"weights\": \"WC\"},\n"
      "  \"rr_sets\": %u,\n"
      "  \"csr_bytes\": %llu,\n"
      "  \"mapped_bytes\": %llu,\n"
      "  \"compression_ratio\": %.3f,\n"
      "  \"rr_seconds_memory\": %.6f,\n"
      "  \"rr_seconds_compact\": %.6f,\n"
      "  \"decode_overhead\": %.3f\n"
      "}\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      num_sets, static_cast<unsigned long long>(csr_bytes),
      static_cast<unsigned long long>(mapped_bytes), compression,
      memory_seconds, compact_seconds, overhead);
  std::fclose(f);
  std::printf("wrote %s\n", out->c_str());
  std::remove(file->c_str());
  return 0;
}
