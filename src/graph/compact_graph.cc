#include "graph/compact_graph.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "framework/fault.h"
#include "framework/trace.h"

namespace imbench {

namespace {

using imgrf::DecodeVarint;
using imgrf::kBlockSize;

}  // namespace

CompactGraph::~CompactGraph() { Reset(); }

CompactGraph::CompactGraph(CompactGraph&& other) noexcept {
  *this = std::move(other);
}

CompactGraph& CompactGraph::operator=(CompactGraph&& other) noexcept {
  if (this == &other) return *this;
  Reset();
  path_ = std::move(other.path_);
  file_ = std::move(other.file_);
  num_nodes_ = std::exchange(other.num_nodes_, 0);
  num_edges_ = std::exchange(other.num_edges_, 0);
  model_ = other.model_;
  fingerprint_ = std::exchange(other.fingerprint_, 0);
  synthesize_in_weights_ = std::exchange(other.synthesize_in_weights_, false);
  constant_weight_ = std::exchange(other.constant_weight_, 0.0);
  out_edge_offsets_ = std::exchange(other.out_edge_offsets_, nullptr);
  out_byte_offsets_ = std::exchange(other.out_byte_offsets_, nullptr);
  out_blocks_ = std::exchange(other.out_blocks_, nullptr);
  weights_ = std::exchange(other.weights_, nullptr);
  in_edge_offsets_ = std::exchange(other.in_edge_offsets_, nullptr);
  in_byte_offsets_ = std::exchange(other.in_byte_offsets_, nullptr);
  in_blocks_ = std::exchange(other.in_blocks_, nullptr);
  multiplicities_ = std::exchange(other.multiplicities_, nullptr);
  return *this;
}

void CompactGraph::Reset() {
  file_.Reset();
  num_nodes_ = 0;
  num_edges_ = 0;
  fingerprint_ = 0;
  synthesize_in_weights_ = false;
  constant_weight_ = 0.0;
  out_edge_offsets_ = out_byte_offsets_ = in_edge_offsets_ =
      in_byte_offsets_ = nullptr;
  out_blocks_ = in_blocks_ = nullptr;
  weights_ = nullptr;
  multiplicities_ = nullptr;
  path_.clear();
}

SealedStatus CompactGraph::Open(const std::string& path, CompactGraph* out,
                                std::string* error,
                                const OpenOptions& options) {
  if (FaultFire(faultsite::kGraphFileRead)) {
    return Refuse(SealedStatus::kIoError, error,
                  "injected graph_file_read fault");
  }
  SealedFile file;
  const SealedStatus status =
      SealedFile::Open(path, imgrf::kFormat, &file, error);
  if (status != SealedStatus::kOk) return status;
  auto refuse = [&](SealedStatus refusal, const std::string& message) {
    return Refuse(refusal, error, message + ": " + path);
  };

  FieldReader fields(file.fields());
  const uint32_t model_raw = fields.Take<uint32_t>();
  const NodeId num_nodes = fields.Take<NodeId>();
  const uint32_t flags = fields.Take<uint32_t>();
  const uint64_t num_edges = fields.Take<uint64_t>();
  const uint64_t fingerprint = fields.Take<uint64_t>();
  if (model_raw > static_cast<uint32_t>(WeightModel::kLtParallel)) {
    return refuse(SealedStatus::kCorrupt, "unknown weight model tag");
  }

  // Section sizes consistent with the header counts. num_edges is bounded
  // by the file size first, so the products cannot overflow.
  const uint64_t n1 = static_cast<uint64_t>(num_nodes) + 1;
  const bool has_mults = (flags & imgrf::kFlagHasMultiplicities) != 0;
  const uint64_t expect_size[imgrf::kNumSections] = {
      n1 * 8, n1 * 8, file.section(imgrf::kOutBlocks).size(), num_edges * 8,
      n1 * 8, n1 * 8, file.section(imgrf::kInBlocks).size(),
      has_mults ? num_edges * 4 : 0};
  bool sizes_ok = num_edges <= file.size() / 8;
  for (int s = 0; sizes_ok && s < imgrf::kNumSections; ++s) {
    sizes_ok = file.section(s).size() == expect_size[s];
  }
  if (!sizes_ok) {
    return refuse(SealedStatus::kCorrupt,
                  "section sizes disagree with the header counts");
  }
  if (options.has_expected_fingerprint &&
      fingerprint != options.expected_fingerprint) {
    return refuse(SealedStatus::kMismatch,
                  "graph fingerprint mismatch (foreign file)");
  }

  // Structural invariants the decoders rely on (monotone offsets ending at
  // the section sizes). O(n) scan of the offset arrays only.
  auto u64_section = [&file](int s) {
    return reinterpret_cast<const uint64_t*>(file.section(s).data());
  };
  const uint64_t* out_eo = u64_section(imgrf::kOutEdgeOffsets);
  const uint64_t* out_bo = u64_section(imgrf::kOutByteOffsets);
  const uint64_t* in_eo = u64_section(imgrf::kInEdgeOffsets);
  const uint64_t* in_bo = u64_section(imgrf::kInByteOffsets);
  const uint8_t* out_blocks = file.section(imgrf::kOutBlocks).data();
  const uint8_t* in_blocks = file.section(imgrf::kInBlocks).data();
  const double* weights = reinterpret_cast<const double*>(
      file.section(imgrf::kWeights).data());
  bool offsets_ok = out_eo[0] == 0 && out_bo[0] == 0 && in_eo[0] == 0 &&
                    in_bo[0] == 0 && out_eo[num_nodes] == num_edges &&
                    in_eo[num_nodes] == num_edges &&
                    out_bo[num_nodes] == expect_size[imgrf::kOutBlocks] &&
                    in_bo[num_nodes] == expect_size[imgrf::kInBlocks];
  for (NodeId u = 0; offsets_ok && u < num_nodes; ++u) {
    offsets_ok = out_eo[u] <= out_eo[u + 1] && out_bo[u] <= out_bo[u + 1] &&
                 in_eo[u] <= in_eo[u + 1] && in_bo[u] <= in_bo[u + 1];
  }
  if (!offsets_ok) {
    return refuse(SealedStatus::kCorrupt, "malformed offset sections");
  }

  out->Reset();
  out->path_ = path;
  out->num_nodes_ = num_nodes;
  out->num_edges_ = num_edges;
  out->model_ = static_cast<WeightModel>(model_raw);
  out->fingerprint_ = fingerprint;
  // In-weight synthesis (see DecodeIn): WC and LT-uniform store
  // 1.0/InDegree(v) per in-edge, IC-constant stores one global value, so
  // the decoder can reproduce the weights lane bit-for-bit from the offsets
  // alone instead of gathering m random doubles through the edge-id map.
  switch (out->model_) {
    case WeightModel::kWc:
    case WeightModel::kLtUniform:
      out->synthesize_in_weights_ = true;
      break;
    case WeightModel::kIcConstant:
      out->synthesize_in_weights_ = true;
      out->constant_weight_ = num_edges > 0 ? weights[0] : 0.0;
      break;
    default:
      out->synthesize_in_weights_ = false;
      break;
  }
  out->out_edge_offsets_ = out_eo;
  out->out_byte_offsets_ = out_bo;
  out->out_blocks_ = out_blocks;
  out->weights_ = weights;
  out->in_edge_offsets_ = in_eo;
  out->in_byte_offsets_ = in_bo;
  out->in_blocks_ = in_blocks;
  out->multiplicities_ =
      has_mults ? reinterpret_cast<const uint32_t*>(
                      file.section(imgrf::kMultiplicities).data())
                : nullptr;
  TraceAdd(options.trace, TraceCounter::kGraphBytesMapped, file.size());
  out->file_ = std::move(file);
  return SealedStatus::kOk;
}

void CompactGraph::DecodeOut(NodeId u, AdjScratch& scratch) const {
  const uint32_t degree = OutDegree(u);
  scratch.nodes.resize(degree);
  const uint8_t* p = out_blocks_ + out_byte_offsets_[u];
  uint64_t prev = 0;
  for (uint32_t i = 0; i < degree; ++i) {
    uint64_t delta;
    p = DecodeVarint(p, &delta);
    prev = (i % kBlockSize == 0) ? delta : prev + delta;
    scratch.nodes[i] = static_cast<NodeId>(prev);
  }
  scratch.blocks_decoded += (degree + kBlockSize - 1) / kBlockSize;
}

void CompactGraph::DecodeIn(NodeId v, AdjScratch& scratch, bool decode_weights,
                            bool decode_edge_ids) const {
  const uint64_t base = in_edge_offsets_[v];
  const uint32_t degree = static_cast<uint32_t>(in_edge_offsets_[v + 1] - base);
  scratch.nodes.resize(degree);
  // The gather through the rank->edge-id map costs two dependent random
  // loads per edge; skip it whenever the weights can be synthesized and
  // nobody asked for the edge ids (the sampler hot path).
  const bool gather = decode_edge_ids ||
                      (decode_weights && !synthesize_in_weights_);
  if (decode_weights) scratch.weights.resize(degree);
  if (gather) scratch.edge_ids.resize(degree);
  const uint8_t* p = in_blocks_ + in_byte_offsets_[v];
  uint64_t prev = 0;
  if (gather) {
    for (uint32_t i = 0; i < degree; ++i) {
      uint64_t delta, rank;
      p = DecodeVarint(p, &delta);
      p = DecodeVarint(p, &rank);
      prev = (i % kBlockSize == 0) ? delta : prev + delta;
      const NodeId source = static_cast<NodeId>(prev);
      scratch.nodes[i] = source;
      scratch.edge_ids[i] = out_edge_offsets_[source] + rank;
    }
  } else {
    // Sources-only decode: the rank varint is skipped, not accumulated.
    for (uint32_t i = 0; i < degree; ++i) {
      uint64_t delta;
      p = DecodeVarint(p, &delta);
      while (*p++ >= 0x80) {
      }
      prev = (i % kBlockSize == 0) ? delta : prev + delta;
      scratch.nodes[i] = static_cast<NodeId>(prev);
    }
  }
  if (decode_weights) {
    if (!synthesize_in_weights_) {
      for (uint32_t i = 0; i < degree; ++i) {
        scratch.weights[i] = weights_[scratch.edge_ids[i]];
      }
    } else if (model_ == WeightModel::kIcConstant) {
      for (uint32_t i = 0; i < degree; ++i) {
        scratch.weights[i] = constant_weight_;
      }
    } else {
      // Exactly AssignWeightedCascade's expression, so the synthesized
      // value is bit-identical to the stored lane.
      const double w = 1.0 / static_cast<double>(degree);
      for (uint32_t i = 0; i < degree; ++i) scratch.weights[i] = w;
    }
  }
  scratch.blocks_decoded += (degree + kBlockSize - 1) / kBlockSize;
}

double CompactGraph::InWeightSum(NodeId v, AdjScratch& scratch) const {
  DecodeIn(v, scratch);
  double sum = 0;
  for (const double w : scratch.weights) sum += w;
  return sum;
}

uint64_t CompactGraph::ResidentBytes() const {
  if (!file_.mapped()) return 0;
  const long page_long = ::sysconf(_SC_PAGESIZE);
  const uint64_t page = page_long > 0 ? static_cast<uint64_t>(page_long) : 4096;
  const uint64_t mapped = file_.size();
  const uint64_t num_pages = (mapped + page - 1) / page;
  std::vector<unsigned char> vec(num_pages);
  void* base = const_cast<uint8_t*>(file_.data());
  if (::mincore(base, mapped, vec.data()) != 0) return 0;
  uint64_t resident = 0;
  for (const unsigned char c : vec) resident += (c & 1u);
  // mincore counts whole pages; clamp so a fully-resident file never
  // reports more resident than mapped bytes.
  return std::min(resident * page, mapped);
}

void CompactGraph::DropPages() const {
  if (!file_.mapped()) return;
  ::madvise(const_cast<uint8_t*>(file_.data()), file_.size(), MADV_DONTNEED);
}

}  // namespace imbench
