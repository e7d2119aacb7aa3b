// dataset_gen: materializes the synthetic dataset catalog (or any custom
// generator) as SNAP-format edge-list files — or directly as `.imgrf`
// graph files (weights baked in) for the out-of-core CompactGraph backend.
//
//   ./dataset_gen --dataset=nethept --scale=bench --out=nethept.txt
//   ./dataset_gen --generator=ba --nodes=10000 --arcs-per-node=5 --out=ba.txt
//   ./dataset_gen --generator=ba --nodes=6250000 --arcs-per-node=16
//       --model=WC --stream --out=ba100m.imgrf
//
// `.imgrf` output goes through GraphFileStreamWriter, which needs O(nodes)
// RAM regardless of the arc count. With --stream the BA generator also keeps
// its endpoint history (the degree-proportional sampling pool, 8 bytes per
// arc) in an unlinked mmap-backed temp file instead of the heap, so
// paper-scale graphs (100M+ arcs) generate without ever holding the arcs in
// memory. The streamed BA consumes the RNG identically to the in-memory
// BarabasiAlbert, so --stream changes the memory profile, not the graph.

#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "framework/datasets.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "graph/stats.h"
#include "graph/weights.h"

#ifndef _WIN32
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace imbench;

namespace {

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Append-only uint32 array in an unlinked temp file, mapped to its maximum
// size up front (pages materialize on first touch). Falls back to the heap
// when the platform has no mmap so the tool still works everywhere.
class FileBackedU32Array {
 public:
  explicit FileBackedU32Array(uint64_t max_entries) {
#ifndef _WIN32
    std::FILE* f = std::tmpfile();
    if (f != nullptr &&
        ftruncate(fileno(f), static_cast<off_t>(max_entries * 4)) == 0) {
      void* p = mmap(nullptr, max_entries * 4, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fileno(f), 0);
      if (p != MAP_FAILED) {
        data_ = static_cast<uint32_t*>(p);
        mapped_entries_ = max_entries;
      }
    }
    // The mapping pins the inode; the FILE handle can go either way. Close
    // it so the descriptor is not leaked (the mapping survives the close).
    if (f != nullptr) std::fclose(f);
#endif
    if (data_ == nullptr) heap_.reserve(max_entries);
  }

  ~FileBackedU32Array() {
#ifndef _WIN32
    if (data_ != nullptr) munmap(data_, mapped_entries_ * 4);
#endif
  }

  void push_back(uint32_t v) {
    if (data_ != nullptr) {
      IMBENCH_CHECK(size_ < mapped_entries_);
      data_[size_++] = v;
    } else {
      heap_.push_back(v);
      ++size_;
    }
  }

  uint32_t operator[](uint64_t i) const {
    return data_ != nullptr ? data_[i] : heap_[i];
  }
  uint64_t size() const { return size_; }
  bool file_backed() const { return data_ != nullptr; }

 private:
  uint32_t* data_ = nullptr;
  uint64_t mapped_entries_ = 0;
  uint64_t size_ = 0;
  std::vector<uint32_t> heap_;
};

// Barabasi–Albert streamed arc-by-arc into `sink`. Mirrors the in-memory
// BarabasiAlbert() exactly — same RNG consumption, same arc order, same
// rejection loop — with the endpoint pool spilled to a temp file.
template <typename Sink>
void StreamBarabasiAlbert(NodeId num_nodes, uint32_t edges_per_node, Rng& rng,
                          Sink&& sink) {
  IMBENCH_CHECK(edges_per_node >= 1);
  IMBENCH_CHECK(num_nodes > edges_per_node);
  const uint64_t k = edges_per_node;
  const uint64_t max_arcs =
      k * (k + 1) / 2 + (static_cast<uint64_t>(num_nodes) - k - 1) * k;
  FileBackedU32Array endpoints(max_arcs * 2);
  for (NodeId u = 0; u <= edges_per_node; ++u) {
    for (NodeId v = 0; v < u; ++v) {
      sink(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (NodeId u = edges_per_node + 1; u < num_nodes; ++u) {
    uint32_t added = 0;
    std::unordered_set<NodeId> picked;
    for (uint32_t attempt = 0;
         added < edges_per_node && attempt < 64 * edges_per_node; ++attempt) {
      const NodeId v = endpoints[rng.NextU64(endpoints.size())];
      if (v == u || !picked.insert(v).second) continue;
      sink(u, v);
      ++added;
    }
    for (const NodeId v : picked) {
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("generate synthetic social networks as edge lists");
  std::string* dataset = flags.AddString(
      "dataset", "", "catalog profile to generate (empty: use --generator)");
  std::string* scale = flags.AddString("scale", "bench", "dataset scale");
  std::string* generator = flags.AddString(
      "generator", "rmat", "er|ba|ws|chunglu|rmat (with --nodes/--arcs)");
  int64_t* nodes = flags.AddInt("nodes", 10000, "custom generator: nodes");
  int64_t* arcs = flags.AddInt("arcs", 50000, "custom generator: arcs");
  int64_t* arcs_per_node =
      flags.AddInt("arcs-per-node", 5, "ba: attachments per node");
  double* beta = flags.AddDouble("beta", 0.1, "ws: rewiring probability");
  double* exponent = flags.AddDouble("exponent", 2.5, "chunglu: power-law");
  int64_t* seed = flags.AddInt("seed", 7, "RNG seed");
  std::string* out = flags.AddString("out", "graph.txt", "output path");
  std::string* format = flags.AddString(
      "format", "auto",
      "edgelist|imgrf|auto (auto: .imgrf suffix selects the graph file)");
  std::string* model_name = flags.AddString(
      "model", "WC",
      "imgrf: weight model baked into the file (IC|WC|TV|LT|LT-P; "
      "LT-random is not streamable)");
  double* ic_p = flags.AddDouble("p", 0.1, "imgrf: IC constant probability");
  bool* stream = flags.AddBool(
      "stream", false,
      "imgrf + --generator=ba only: stream arcs straight into the writer "
      "(O(nodes) RAM, endpoint pool in a temp file)");
  bool* stats = flags.AddBool("stats", true, "print summary statistics");
  flags.Parse(argc, argv);

  bool write_imgrf;
  if (*format == "imgrf") {
    write_imgrf = true;
  } else if (*format == "edgelist") {
    write_imgrf = false;
  } else if (*format == "auto") {
    write_imgrf = HasSuffix(*out, ".imgrf");
  } else {
    std::fprintf(stderr, "unknown --format '%s' (edgelist|imgrf|auto)\n",
                 format->c_str());
    return 2;
  }

  GraphFileStreamWriter::Options writer_options;
  if (write_imgrf) {
    if (!ParseWeightModel(*model_name, &writer_options.model)) {
      std::fprintf(stderr, "unknown model '%s' (IC|WC|TV|LT|LT-random|LT-P)\n",
                   model_name->c_str());
      return 2;
    }
    writer_options.ic_p = *ic_p;
    // The one weighting rule (AssignSeededWeights), so an .imgrf written
    // with --seed=S carries byte-identical weights to an in-memory run of
    // the same graph under --seed=S.
    writer_options.weight_rng_seed = WeightSeed(static_cast<uint64_t>(*seed));
  }

  if (*stream) {
    if (!write_imgrf || !dataset->empty() || *generator != "ba") {
      std::fprintf(stderr,
                   "--stream requires --generator=ba and .imgrf output "
                   "(er/ws/chunglu/rmat need global dedup state and are "
                   "generated in memory)\n");
      return 2;
    }
    Rng rng(static_cast<uint64_t>(*seed));
    const NodeId n = static_cast<NodeId>(*nodes);
    GraphFileStreamWriter writer(*out, n, writer_options);
    StreamBarabasiAlbert(n, static_cast<uint32_t>(*arcs_per_node), rng,
                         [&](NodeId u, NodeId v) { writer.AddArc(u, v); });
    std::string error;
    if (!writer.Finish(&error)) {
      std::fprintf(stderr, "failed to write '%s': %s\n", out->c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("streamed %llu arcs over %u nodes to %s (%s weights)\n",
                static_cast<unsigned long long>(writer.num_edges()), n,
                out->c_str(), WeightModelName(writer_options.model).c_str());
    return 0;
  }

  EdgeList list;
  if (!dataset->empty()) {
    const DatasetProfile* profile = FindDataset(*dataset);
    if (profile == nullptr) {
      std::fprintf(stderr, "unknown dataset '%s'\n", dataset->c_str());
      return 1;
    }
    // An .imgrf is symmetrized as MakeDataset does, so the file holds the
    // graph that --dataset builds in memory. An edge list keeps each arc
    // once (README).
    writer_options.make_bidirectional = write_imgrf && !profile->directed;
    const DatasetScale ds = ParseDatasetScale(*scale);
    Rng rng = Rng::ForStream(static_cast<uint64_t>(*seed),
                             std::hash<std::string>{}(profile->name));
    list = Rmat(profile->NodesAt(ds), profile->EdgesAt(ds), RmatParams{},
                rng);
  } else {
    Rng rng(static_cast<uint64_t>(*seed));
    const NodeId n = static_cast<NodeId>(*nodes);
    const uint64_t m = static_cast<uint64_t>(*arcs);
    if (*generator == "er") {
      list = ErdosRenyi(n, m, rng);
    } else if (*generator == "ba") {
      list = BarabasiAlbert(n, static_cast<uint32_t>(*arcs_per_node), rng);
    } else if (*generator == "ws") {
      list = WattsStrogatz(n, static_cast<uint32_t>(*arcs_per_node) * 2,
                           *beta, rng);
    } else if (*generator == "chunglu") {
      list = ChungLu(n, m, *exponent, rng);
    } else if (*generator == "rmat") {
      list = Rmat(n, m, RmatParams{}, rng);
    } else {
      std::fprintf(stderr, "unknown generator '%s'\n", generator->c_str());
      return 1;
    }
  }

  if (write_imgrf) {
    GraphFileStreamWriter writer(*out, list.num_nodes, writer_options);
    for (const Arc& arc : list.arcs) writer.AddArc(arc.source, arc.target);
    std::string error;
    if (!writer.Finish(&error)) {
      std::fprintf(stderr, "failed to write '%s': %s\n", out->c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("wrote %llu arcs over %u nodes to %s (%s weights)\n",
                static_cast<unsigned long long>(writer.num_edges()),
                list.num_nodes, out->c_str(),
                WeightModelName(writer_options.model).c_str());
  } else {
    if (!SaveEdgeList(*out, list)) {
      std::fprintf(stderr, "failed to write '%s'\n", out->c_str());
      return 1;
    }
    std::printf("wrote %zu arcs over %u nodes to %s\n", list.arcs.size(),
                list.num_nodes, out->c_str());
  }

  if (*stats) {
    GraphOptions graph_options;
    graph_options.make_bidirectional = writer_options.make_bidirectional;
    Graph graph = Graph::FromArcs(list.num_nodes, list.arcs, graph_options);
    Rng srng(static_cast<uint64_t>(*seed) + 1);
    const GraphStats s = ComputeStats(graph, srng, 16);
    std::printf(
        "stats: avg out-degree %.2f, max out-degree %u, 90%%ile diameter "
        "%.1f, largest WCC %u\n",
        s.avg_out_degree, s.max_out_degree, s.effective_diameter_90,
        s.largest_wcc_size);
  }
  return 0;
}
