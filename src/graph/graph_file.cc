#include "graph/graph_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"
#include "framework/fault.h"

namespace imbench {

namespace imgrf {

const SealedFormat kFormat = {
    .magic = {'I', 'M', 'G', 'R', 'F', '0', '1', '\0'},
    .family_bytes = 5,
    .version = 1,
    .field_bytes = 4 + 4 + 4 + 8 + 8,
    .num_sections = kNumSections,
    .map_fault = faultsite::kGraphFileMap,
};

}  // namespace imgrf

uint64_t GraphFingerprint(const Graph& graph) {
  GraphFingerprinter fingerprint(graph.num_nodes(), graph.num_edges());
  std::vector<uint32_t> mults;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const std::span<const NodeId> targets = graph.OutTargets(u);
    const EdgeId base = graph.OutEdgeBase(u);
    mults.resize(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
      mults[i] = graph.EdgeMultiplicity(base + i);
    }
    fingerprint.Node(targets, graph.OutWeights(u), mults);
  }
  return fingerprint.Digest();
}

namespace {

using imgrf::AppendVarint;
using imgrf::kBlockSize;

// Encodes one node's strictly ascending out-targets as fixed-64 delta
// blocks (block-leading value absolute) and appends to `out`.
void EncodeOutBlocks(std::span<const NodeId> targets,
                     std::vector<uint8_t>& out) {
  NodeId prev = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const NodeId t = targets[i];
    AppendVarint(out, i % kBlockSize == 0 ? t : t - prev);
    prev = t;
  }
}

// Encodes one node's in-edges as fixed-64 blocks of (source, rank) pairs:
// ascending sources delta-coded (block-leading absolute), ranks raw.
void EncodeInBlocks(std::span<const NodeId> sources,
                    std::span<const uint32_t> ranks,
                    std::vector<uint8_t>& out) {
  NodeId prev = 0;
  for (size_t i = 0; i < sources.size(); ++i) {
    const NodeId s = sources[i];
    AppendVarint(out, i % kBlockSize == 0 ? s : s - prev);
    AppendVarint(out, ranks[i]);
    prev = s;
  }
}

// The IMGRF01 format fields, in header order.
std::span<const uint8_t> GraphFields(FieldWriter& fields, WeightModel model,
                                     NodeId num_nodes, uint32_t flags,
                                     uint64_t num_edges, uint64_t fingerprint) {
  fields.Put(static_cast<uint32_t>(model));
  fields.Put(num_nodes);
  fields.Put(flags);
  fields.Put(num_edges);
  fields.Put(fingerprint);
  return fields.bytes();
}

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool WriteGraphFile(const Graph& graph, WeightModel model,
                    const std::string& path, std::string* error) {
  const NodeId n = graph.num_nodes();
  const uint64_t m = graph.num_edges();

  std::vector<uint64_t> out_edge_offsets(n + 1, 0);
  std::vector<uint64_t> out_byte_offsets(n + 1, 0);
  std::vector<uint8_t> out_blocks;
  std::vector<uint64_t> in_edge_offsets(n + 1, 0);
  std::vector<uint64_t> in_byte_offsets(n + 1, 0);
  std::vector<uint8_t> in_blocks;
  std::vector<uint32_t> mults;
  std::vector<uint32_t> ranks;

  for (NodeId u = 0; u < n; ++u) {
    const auto targets = graph.OutTargets(u);
    out_edge_offsets[u + 1] = out_edge_offsets[u] + targets.size();
    EncodeOutBlocks(targets, out_blocks);
    out_byte_offsets[u + 1] = out_blocks.size();
  }
  if (graph.has_parallel_arcs()) {
    mults.resize(m);
    for (uint64_t e = 0; e < m; ++e) {
      mults[e] = graph.EdgeMultiplicity(e);
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const auto sources = graph.InSources(v);
    const auto edge_ids = graph.InEdgeIds(v);
    in_edge_offsets[v + 1] = in_edge_offsets[v] + sources.size();
    ranks.resize(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      ranks[i] =
          static_cast<uint32_t>(edge_ids[i] - graph.OutEdgeBase(sources[i]));
    }
    EncodeInBlocks(sources, ranks, in_blocks);
    in_byte_offsets[v + 1] = in_blocks.size();
  }

  const std::span<const double> weights = graph.weights();
  const SealedSection sections[imgrf::kNumSections] = {
      {out_edge_offsets.data(), out_edge_offsets.size() * 8},
      {out_byte_offsets.data(), out_byte_offsets.size() * 8},
      {out_blocks.data(), out_blocks.size()},
      {weights.data(), weights.size_bytes()},
      {in_edge_offsets.data(), in_edge_offsets.size() * 8},
      {in_byte_offsets.data(), in_byte_offsets.size() * 8},
      {in_blocks.data(), in_blocks.size()},
      {mults.data(), mults.size() * 4}};
  FieldWriter fields;
  return WriteSealedFile(
      path, imgrf::kFormat,
      GraphFields(fields, model, n,
                  graph.has_parallel_arcs() ? imgrf::kFlagHasMultiplicities : 0,
                  m, GraphFingerprint(graph)),
      sections, error);
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

namespace {

// A temp file mapped read-write for external counting-sort scatter passes.
struct ScatterFile {
  std::string path;
  int fd = -1;
  void* map = nullptr;
  uint64_t size = 0;

  bool Create(const std::string& p, uint64_t bytes) {
    path = p;
    size = bytes;
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    if (bytes == 0) return true;
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) return false;
    map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (map == MAP_FAILED) {
      map = nullptr;
      return false;
    }
    return true;
  }
  void Destroy() {
    if (map != nullptr) ::munmap(map, size);
    if (fd >= 0) ::close(fd);
    if (!path.empty()) std::remove(path.c_str());
    map = nullptr;
    fd = -1;
    path.clear();
  }
};

struct TempFile {
  std::string path;
  std::FILE* f = nullptr;

  bool Create(const std::string& p) {
    path = p;
    f = std::fopen(path.c_str(), "w+b");
    return f != nullptr;
  }
  void Destroy() {
    if (f != nullptr) std::fclose(f);
    if (!path.empty()) std::remove(path.c_str());
    f = nullptr;
    path.clear();
  }
};

}  // namespace

struct GraphFileStreamWriter::Impl {
  std::string path;
  NodeId num_nodes = 0;
  Options options;

  TempFile arcs;                       // spill: (u32 source, u32 target)
  std::vector<uint32_t> arc_buf;       // AddArc write buffer
  std::vector<uint64_t> raw_degree;    // per source, incl. dupes/self-loops
  uint64_t raw_arcs = 0;
  bool io_error = false;
  std::string io_detail;

  bool FlushArcBuf() {
    if (arc_buf.empty()) return true;
    const size_t want = arc_buf.size();
    const bool ok = std::fwrite(arc_buf.data(), 4, want, arcs.f) == want;
    arc_buf.clear();
    if (!ok && !io_error) {
      io_error = true;
      io_detail = "arc spill write failed (disk full?)";
    }
    return ok;
  }
};

GraphFileStreamWriter::GraphFileStreamWriter(std::string path, NodeId num_nodes,
                                             const Options& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->path = std::move(path);
  impl_->num_nodes = num_nodes;
  impl_->options = options;
  impl_->raw_degree.assign(num_nodes, 0);
  impl_->arc_buf.reserve(1 << 15);
  if (!impl_->arcs.Create(impl_->path + ".arcs.tmp")) {
    impl_->io_error = true;
    impl_->io_detail = "cannot create arc spill " + impl_->path + ".arcs.tmp";
  }
}

GraphFileStreamWriter::~GraphFileStreamWriter() {
  if (impl_ != nullptr) impl_->arcs.Destroy();
}

bool GraphFileStreamWriter::AddArc(NodeId u, NodeId v) {
  Impl& im = *impl_;
  IMBENCH_CHECK_MSG(u < im.num_nodes && v < im.num_nodes,
                    "arc (%u, %u) out of range for %u nodes", u, v,
                    im.num_nodes);
  if (im.io_error) return false;
  im.arc_buf.push_back(u);
  im.arc_buf.push_back(v);
  ++im.raw_degree[u];
  ++im.raw_arcs;
  ++arcs_added_;
  if (im.options.make_bidirectional) {
    im.arc_buf.push_back(v);
    im.arc_buf.push_back(u);
    ++im.raw_degree[v];
    ++im.raw_arcs;
  }
  if (im.arc_buf.size() >= (1 << 15)) return im.FlushArcBuf();
  return true;
}

bool GraphFileStreamWriter::Finish(std::string* error) {
  Impl& im = *impl_;
  const NodeId n = im.num_nodes;
  auto fail = [&](const std::string& message) {
    im.arcs.Destroy();
    std::remove(im.path.c_str());
    return Fail(error, message);
  };
  if (im.options.model == WeightModel::kLtRandom) {
    return fail(
        "LT-random weights need a target-order RNG pass over the built CSR "
        "and cannot be streamed; build in memory and use WriteGraphFile");
  }
  if (!im.FlushArcBuf() || im.io_error) return fail(im.io_detail);

  // Scatter arcs into per-source buckets (external counting sort): one
  // sequential read of the spill, one random-access write per arc into the
  // mapped bucket file. Only targets are stored — the bucket index is the
  // source.
  std::vector<uint64_t> bucket_start(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    bucket_start[u + 1] = bucket_start[u] + im.raw_degree[u];
  }
  im.raw_degree.clear();
  im.raw_degree.shrink_to_fit();
  ScatterFile by_source;
  if (!by_source.Create(im.path + ".bysrc.tmp", im.raw_arcs * 4)) {
    by_source.Destroy();
    return fail("cannot create scatter temp (disk full?)");
  }
  {
    std::vector<uint64_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
    uint32_t* slots = static_cast<uint32_t*>(by_source.map);
    std::rewind(im.arcs.f);
    std::vector<uint32_t> buf(1 << 15);
    size_t got;
    while ((got = std::fread(buf.data(), 4, buf.size(), im.arcs.f)) > 0) {
      IMBENCH_CHECK(got % 2 == 0);
      for (size_t i = 0; i < got; i += 2) {
        slots[cursor[buf[i]]++] = buf[i + 1];
      }
    }
    if (std::ferror(im.arcs.f) != 0) {
      by_source.Destroy();
      return fail("arc spill read failed");
    }
  }
  im.arcs.Destroy();

  // Pass A: per source (ascending), sort + dedup targets, drop self-loops,
  // accumulate final degrees and in-degree / multiplicity-sum histograms.
  // Deduped (target, multiplicity) pairs go to a sequential temp.
  TempFile dedup;
  if (!dedup.Create(im.path + ".dedup.tmp")) {
    by_source.Destroy();
    dedup.Destroy();
    return fail("cannot create dedup temp");
  }
  std::vector<uint32_t> out_degree(n, 0);
  std::vector<uint32_t> in_degree(n, 0);
  const bool is_lt_parallel = im.options.model == WeightModel::kLtParallel;
  std::vector<uint64_t> in_mult_sum;
  if (is_lt_parallel) in_mult_sum.assign(n, 0);
  bool any_mult = false;
  uint64_t num_edges = 0;
  {
    const uint32_t* slots = static_cast<const uint32_t*>(by_source.map);
    std::vector<uint32_t> scratch;
    std::vector<uint32_t> pairs;  // (target, mult) interleaved
    for (NodeId u = 0; u < n; ++u) {
      scratch.assign(slots + bucket_start[u], slots + bucket_start[u + 1]);
      std::sort(scratch.begin(), scratch.end());
      pairs.clear();
      for (size_t i = 0; i < scratch.size();) {
        const uint32_t v = scratch[i];
        size_t j = i + 1;
        while (j < scratch.size() && scratch[j] == v) ++j;
        const uint32_t mult = static_cast<uint32_t>(j - i);
        i = j;
        if (im.options.drop_self_loops && v == u) continue;
        pairs.push_back(v);
        pairs.push_back(mult);
        if (mult > 1) any_mult = true;
        ++in_degree[v];
        if (is_lt_parallel) in_mult_sum[v] += mult;
        ++num_edges;
      }
      out_degree[u] = static_cast<uint32_t>(pairs.size() / 2);
      if (!pairs.empty() &&
          std::fwrite(pairs.data(), 4, pairs.size(), dedup.f) !=
              pairs.size()) {
        by_source.Destroy();
        dedup.Destroy();
        return fail("dedup temp write failed (disk full?)");
      }
    }
  }
  by_source.Destroy();
  bucket_start.clear();
  bucket_start.shrink_to_fit();

  // Pass B: walk the deduped CSR source-ascending; encode out blocks,
  // assign + write weights in forward edge order, stream the fingerprint,
  // and scatter (source, rank) into per-target buckets for pass C.
  std::vector<uint64_t> out_edge_offsets(n + 1, 0);
  std::vector<uint64_t> out_byte_offsets(n + 1, 0);
  std::vector<uint64_t> in_edge_offsets(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    out_edge_offsets[u + 1] = out_edge_offsets[u] + out_degree[u];
  }
  for (NodeId v = 0; v < n; ++v) {
    in_edge_offsets[v + 1] = in_edge_offsets[v] + in_degree[v];
  }
  out_degree.clear();
  out_degree.shrink_to_fit();

  TempFile out_blocks_tmp, weights_tmp, mult_tmp, in_blocks_tmp;
  ScatterFile by_target;
  auto fail_passes = [&](const std::string& message) {
    dedup.Destroy();
    out_blocks_tmp.Destroy();
    weights_tmp.Destroy();
    mult_tmp.Destroy();
    in_blocks_tmp.Destroy();
    by_target.Destroy();
    return fail(message);
  };
  if (!out_blocks_tmp.Create(im.path + ".outb.tmp") ||
      !weights_tmp.Create(im.path + ".wts.tmp") ||
      !mult_tmp.Create(im.path + ".mult.tmp") ||
      !in_blocks_tmp.Create(im.path + ".inb.tmp") ||
      !by_target.Create(im.path + ".bytgt.tmp", num_edges * 8)) {
    return fail_passes("cannot create encode temps (disk full?)");
  }

  GraphFingerprinter fingerprint(n, num_edges);
  Rng tv_rng(im.options.weight_rng_seed);
  static constexpr double kTvLevels[3] = {0.001, 0.01, 0.1};
  {
    std::rewind(dedup.f);
    std::vector<uint32_t> pairs;
    std::vector<NodeId> targets;
    std::vector<uint32_t> node_mults;
    std::vector<double> node_weights;
    std::vector<uint8_t> encoded;
    std::vector<uint64_t> in_cursor(in_edge_offsets.begin(),
                                    in_edge_offsets.end() - 1);
    uint32_t* tgt_slots = static_cast<uint32_t*>(by_target.map);
    for (NodeId u = 0; u < n; ++u) {
      const uint32_t degree = static_cast<uint32_t>(out_edge_offsets[u + 1] -
                                                    out_edge_offsets[u]);
      pairs.resize(static_cast<size_t>(degree) * 2);
      if (degree > 0 &&
          std::fread(pairs.data(), 4, pairs.size(), dedup.f) != pairs.size()) {
        return fail_passes("dedup temp read failed");
      }
      targets.resize(degree);
      node_mults.resize(degree);
      node_weights.resize(degree);
      for (uint32_t i = 0; i < degree; ++i) {
        const NodeId v = pairs[2 * i];
        const uint32_t mult = pairs[2 * i + 1];
        targets[i] = v;
        node_mults[i] = mult;
        switch (im.options.model) {
          case WeightModel::kIcConstant:
            node_weights[i] = im.options.ic_p;
            break;
          case WeightModel::kWc:
          case WeightModel::kLtUniform:
            node_weights[i] = 1.0 / static_cast<double>(in_degree[v]);
            break;
          case WeightModel::kTrivalency:
            node_weights[i] = kTvLevels[tv_rng.NextU32(3)];
            break;
          case WeightModel::kLtParallel:
            node_weights[i] = in_mult_sum[v] > 0
                                  ? static_cast<double>(mult) /
                                        static_cast<double>(in_mult_sum[v])
                                  : 0.0;
            break;
          case WeightModel::kLtRandom:
            IMBENCH_CHECK_MSG(false, "unreachable: LT-random rejected above");
            break;
        }
        // Scatter this edge into its target's bucket: the in-direction
        // stores the rank of v inside u's out-list, not the edge id.
        const uint64_t slot = in_cursor[v]++;
        tgt_slots[2 * slot] = u;
        tgt_slots[2 * slot + 1] = i;
      }
      encoded.clear();
      EncodeOutBlocks(targets, encoded);
      out_byte_offsets[u + 1] = out_byte_offsets[u] + encoded.size();
      if (!encoded.empty() &&
          std::fwrite(encoded.data(), 1, encoded.size(), out_blocks_tmp.f) !=
              encoded.size()) {
        return fail_passes("out-block temp write failed (disk full?)");
      }
      if (degree > 0 &&
          std::fwrite(node_weights.data(), 8, degree, weights_tmp.f) !=
              degree) {
        return fail_passes("weights temp write failed (disk full?)");
      }
      // Always spilled: whether the section is emitted depends on any_mult,
      // which may only become true at a later node.
      if (degree > 0 &&
          std::fwrite(node_mults.data(), 4, degree, mult_tmp.f) != degree) {
        return fail_passes("multiplicity temp write failed (disk full?)");
      }
      fingerprint.Node(targets, node_weights, node_mults);
    }
  }
  dedup.Destroy();
  in_degree.clear();
  in_degree.shrink_to_fit();
  in_mult_sum.clear();
  in_mult_sum.shrink_to_fit();

  // Pass C: per target (ascending) encode the (source, rank) pairs —
  // sources arrive ascending because pass B scattered in source order.
  {
    const uint32_t* tgt_slots = static_cast<const uint32_t*>(by_target.map);
    std::vector<NodeId> sources;
    std::vector<uint32_t> ranks;
    std::vector<uint8_t> encoded;
    std::vector<uint64_t> in_byte_offsets_local(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const uint64_t begin = in_edge_offsets[v];
      const uint64_t end = in_edge_offsets[v + 1];
      const uint32_t degree = static_cast<uint32_t>(end - begin);
      sources.resize(degree);
      ranks.resize(degree);
      for (uint32_t i = 0; i < degree; ++i) {
        sources[i] = tgt_slots[2 * (begin + i)];
        ranks[i] = tgt_slots[2 * (begin + i) + 1];
      }
      encoded.clear();
      EncodeInBlocks(sources, ranks, encoded);
      in_byte_offsets_local[v + 1] = in_byte_offsets_local[v] + encoded.size();
      if (!encoded.empty() &&
          std::fwrite(encoded.data(), 1, encoded.size(), in_blocks_tmp.f) !=
              encoded.size()) {
        return fail_passes("in-block temp write failed (disk full?)");
      }
    }
    by_target.Destroy();

    // Assemble the final file: the in-RAM offset arrays and the encode
    // temps, in section order.
    const SealedSection sections[imgrf::kNumSections] = {
        {out_edge_offsets.data(), (n + 1) * 8ull},
        {out_byte_offsets.data(), (n + 1) * 8ull},
        {nullptr, out_byte_offsets[n], out_blocks_tmp.f},
        {nullptr, num_edges * 8, weights_tmp.f},
        {in_edge_offsets.data(), (n + 1) * 8ull},
        {in_byte_offsets_local.data(), (n + 1) * 8ull},
        {nullptr, in_byte_offsets_local[n], in_blocks_tmp.f},
        {nullptr, any_mult ? num_edges * 4 : 0, mult_tmp.f}};
    FieldWriter fields;
    const bool ok = WriteSealedFile(
        im.path, imgrf::kFormat,
        GraphFields(fields, im.options.model, n,
                    any_mult ? imgrf::kFlagHasMultiplicities : 0, num_edges,
                    fingerprint.Digest()),
        sections, error);
    out_blocks_tmp.Destroy();
    weights_tmp.Destroy();
    mult_tmp.Destroy();
    in_blocks_tmp.Destroy();
    if (!ok) return false;
  }
  return true;
}

}  // namespace imbench
