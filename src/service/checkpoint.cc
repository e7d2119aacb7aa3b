#include "service/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "framework/fault.h"

namespace imbench {

namespace {

constexpr char kMagic[8] = {'I', 'M', 'C', 'K', 'P', 'T', '0', '1'};
constexpr uint32_t kVersion = 1;
// Magic, version, kind, seed, epoch, epsilon, num_nodes, reserved,
// fingerprint, set count, entry count, payload and header checksums.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8 + 8 + 8 +
                                8 + 8;

uint64_t Fnv1a(const uint8_t* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Header byte buffer with primitive appends; the checksum is computed over
// the accumulated bytes, so the layout is defined by the append order in
// WriteHeader/ReadHeader alone.
struct ByteWriter {
  std::vector<uint8_t> bytes;
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Raw(const void* data, size_t size) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + size);
  }
};

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  bool ok = true;
  uint32_t U32() { uint32_t v = 0; Raw(&v, sizeof v); return v; }
  uint64_t U64() { uint64_t v = 0; Raw(&v, sizeof v); return v; }
  double F64() { double v = 0; Raw(&v, sizeof v); return v; }
  void Raw(void* out, size_t n) {
    if (pos + n > size) {
      ok = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data + pos, n);
    pos += n;
  }
};

bool FailSave(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

CheckpointStatus Refuse(CheckpointStatus status, std::string* error,
                        const std::string& message) {
  if (error != nullptr) *error = message;
  return status;
}

}  // namespace

const char* CheckpointStatusName(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kOk:
      return "ok";
    case CheckpointStatus::kMissing:
      return "missing";
    case CheckpointStatus::kIoError:
      return "io_error";
    case CheckpointStatus::kCorrupt:
      return "corrupt";
    case CheckpointStatus::kMismatch:
      return "mismatch";
  }
  return "?";
}

uint64_t GraphFingerprint(const Graph& graph) {
  uint64_t h = kFnvBasis;
  const NodeId n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  h = Fnv1a(reinterpret_cast<const uint8_t*>(&n), sizeof n, h);
  h = Fnv1a(reinterpret_cast<const uint8_t*>(&m), sizeof m, h);
  EdgeId id = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::span<const NodeId> targets = graph.OutTargets(u);
    const std::span<const double> weights = graph.OutWeights(u);
    const uint32_t degree = static_cast<uint32_t>(targets.size());
    h = Fnv1a(reinterpret_cast<const uint8_t*>(&degree), sizeof degree, h);
    h = Fnv1a(reinterpret_cast<const uint8_t*>(targets.data()),
              targets.size_bytes(), h);
    h = Fnv1a(reinterpret_cast<const uint8_t*>(weights.data()),
              weights.size_bytes(), h);
    for (size_t i = 0; i < targets.size(); ++i, ++id) {
      const uint32_t mult = graph.EdgeMultiplicity(id);
      h = Fnv1a(reinterpret_cast<const uint8_t*>(&mult), sizeof mult, h);
    }
  }
  return h;
}

bool SaveCorpusCheckpoint(const std::string& path, const CheckpointMeta& meta,
                          const RrCollection& corpus, std::string* error) {
  const std::span<const uint64_t> offsets = corpus.OffsetsArena();
  const std::span<const NodeId> members = corpus.MembersArena();

  uint64_t payload_checksum = kFnvBasis;
  payload_checksum =
      Fnv1a(reinterpret_cast<const uint8_t*>(offsets.data()),
            offsets.size_bytes(), payload_checksum);
  payload_checksum =
      Fnv1a(reinterpret_cast<const uint8_t*>(members.data()),
            members.size_bytes(), payload_checksum);

  ByteWriter header;
  header.Raw(kMagic, sizeof kMagic);
  header.U32(kVersion);
  header.U32(static_cast<uint32_t>(meta.kind));
  header.U64(meta.seed);
  header.U64(meta.epoch);
  header.F64(meta.epsilon);
  header.U32(meta.num_nodes);
  header.U32(0);  // reserved
  header.U64(meta.graph_fingerprint);
  header.U64(static_cast<uint64_t>(corpus.size()));
  header.U64(corpus.TotalEntries());
  header.U64(payload_checksum);
  const uint64_t header_checksum =
      Fnv1a(header.bytes.data(), header.bytes.size(), kFnvBasis);
  header.U64(header_checksum);
  IMBENCH_CHECK(header.bytes.size() == kHeaderBytes);

  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return FailSave(error, "cannot open " + path + " for writing");
  }
  bool ok = std::fwrite(header.bytes.data(), 1, header.bytes.size(), out) ==
            header.bytes.size();
  // Fault site: the write tears after the header and half the offsets
  // arena — the shape a crashed writer or full disk leaves behind. The
  // torn file stays on disk so the recovery path's checksum rejection is
  // exercised end to end.
  if (ok && FaultFire(faultsite::kCheckpointWrite)) {
    std::fwrite(offsets.data(), 1, offsets.size_bytes() / 2, out);
    std::fclose(out);
    return FailSave(error, "injected torn checkpoint write");
  }
  ok = ok && std::fwrite(offsets.data(), 1, offsets.size_bytes(), out) ==
                 offsets.size_bytes();
  ok = ok && std::fwrite(members.data(), 1, members.size_bytes(), out) ==
                 members.size_bytes();
  ok = std::fclose(out) == 0 && ok;
  if (!ok) return FailSave(error, "short write to " + path);
  return true;
}

CheckpointStatus LoadCorpusCheckpoint(const std::string& path,
                                      const CheckpointMeta& expected,
                                      RrCollection* corpus,
                                      CheckpointMeta* saved_meta,
                                      std::string* error) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Refuse(CheckpointStatus::kMissing, error, "no checkpoint at " +
                                                         path);
  }
  const std::unique_ptr<std::FILE, FileCloser> file(in);
  // Fault site: the read fails outright (disk error, permission flip).
  if (FaultFire(faultsite::kCheckpointRead)) {
    return Refuse(CheckpointStatus::kIoError, error,
                  "injected checkpoint read fault");
  }
  std::fseek(in, 0, SEEK_END);
  const long file_size = std::ftell(in);
  std::fseek(in, 0, SEEK_SET);
  if (file_size < 0) {
    return Refuse(CheckpointStatus::kIoError, error, "cannot stat " + path);
  }
  // The header is read and validated on its own; the payload then goes
  // from the file straight into the corpus arenas, with no staging copy.
  uint8_t header[kHeaderBytes];
  const size_t header_bytes =
      std::min(sizeof header, static_cast<size_t>(file_size));
  if (std::fread(header, 1, header_bytes, in) != header_bytes) {
    return Refuse(CheckpointStatus::kIoError, error, "short read from " +
                                                         path);
  }

  ByteReader reader{header, header_bytes};
  char magic[sizeof kMagic];
  reader.Raw(magic, sizeof magic);
  if (!reader.ok || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return Refuse(CheckpointStatus::kCorrupt, error, "bad magic");
  }
  const uint32_t version = reader.U32();
  CheckpointMeta meta;
  meta.kind = static_cast<DiffusionKind>(reader.U32());
  meta.seed = reader.U64();
  meta.epoch = reader.U64();
  meta.epsilon = reader.F64();
  meta.num_nodes = reader.U32();
  reader.U32();  // reserved
  meta.graph_fingerprint = reader.U64();
  const uint64_t num_sets = reader.U64();
  const uint64_t num_entries = reader.U64();
  const uint64_t payload_checksum = reader.U64();
  const size_t checksummed = reader.pos;  // header bytes under the checksum
  const uint64_t header_checksum = reader.U64();
  if (!reader.ok) {
    return Refuse(CheckpointStatus::kCorrupt, error, "truncated header");
  }
  if (Fnv1a(header, checksummed, kFnvBasis) != header_checksum) {
    return Refuse(CheckpointStatus::kCorrupt, error,
                  "header checksum mismatch");
  }
  if (version != kVersion) {
    return Refuse(CheckpointStatus::kMismatch, error,
                  "unsupported version " + std::to_string(version));
  }
  if (meta.kind != expected.kind || meta.seed != expected.seed ||
      meta.num_nodes != expected.num_nodes ||
      meta.graph_fingerprint != expected.graph_fingerprint) {
    return Refuse(CheckpointStatus::kMismatch, error,
                  "checkpoint was taken for a different graph, seed, or "
                  "diffusion model");
  }

  // Bounded by the payload size before any multiplication, so no count
  // from the file can overflow the byte arithmetic or size an arena past
  // the file.
  const uint64_t payload_bytes = static_cast<uint64_t>(file_size) - reader.pos;
  const bool sizes_fit = num_sets < payload_bytes / sizeof(uint64_t) &&
                         num_entries <= payload_bytes / sizeof(NodeId);
  const uint64_t offsets_bytes = (num_sets + 1) * sizeof(uint64_t);
  const uint64_t members_bytes = num_entries * sizeof(NodeId);
  if (!sizes_fit || offsets_bytes + members_bytes != payload_bytes) {
    return Refuse(CheckpointStatus::kCorrupt, error,
                  "torn payload: file size does not match the header");
  }
  MappedArena<uint64_t> offsets;
  MappedArena<NodeId> members;
  const bool read_ok =
      std::fread(offsets.Extend(num_sets + 1), 1, offsets_bytes, in) ==
          offsets_bytes &&
      (members_bytes == 0 ||
       std::fread(members.Extend(num_entries), 1, members_bytes, in) ==
           members_bytes);
  if (!read_ok) {
    return Refuse(CheckpointStatus::kIoError, error, "short read from " +
                                                         path);
  }
  const uint64_t checksum =
      Fnv1a(reinterpret_cast<const uint8_t*>(members.data()), members_bytes,
            Fnv1a(reinterpret_cast<const uint8_t*>(offsets.data()),
                  offsets_bytes, kFnvBasis));
  if (checksum != payload_checksum) {
    return Refuse(CheckpointStatus::kCorrupt, error,
                  "payload checksum mismatch");
  }
  if (!RrCollection::FromArenas(meta.num_nodes, std::move(members),
                                std::move(offsets), corpus)) {
    return Refuse(CheckpointStatus::kCorrupt, error,
                  "malformed corpus arenas");
  }
  if (saved_meta != nullptr) *saved_meta = meta;
  return CheckpointStatus::kOk;
}

}  // namespace imbench
