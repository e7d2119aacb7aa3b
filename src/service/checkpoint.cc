#include "service/checkpoint.h"

#include <utility>

#include "framework/fault.h"

namespace imbench {

namespace {

enum Section : uint32_t { kOffsets = 0, kMembers, kNumSections };

// IMCKPT02: format fields kind (u32), seed (u64), epoch (u64), epsilon
// (f64), num_nodes (u32), reserved (u32), graph fingerprint (u64); the two
// corpus arenas as sections. Loads hit checkpoint_read once the file is
// open, so a missing file counts no hit; saves tear at checkpoint_write.
constexpr SealedFormat kFormat = {
    .magic = {'I', 'M', 'C', 'K', 'P', 'T', '0', '2'},
    .family_bytes = 6,
    .version = 2,
    .field_bytes = 4 + 8 + 8 + 8 + 4 + 4 + 8,
    .num_sections = kNumSections,
    .open_fault = faultsite::kCheckpointRead,
    .write_fault = faultsite::kCheckpointWrite,
};

}  // namespace

bool SaveCorpusCheckpoint(const std::string& path, const CheckpointMeta& meta,
                          const RrCollection& corpus, std::string* error) {
  const std::span<const uint64_t> offsets = corpus.OffsetsArena();
  const std::span<const NodeId> members = corpus.MembersArena();
  FieldWriter fields;
  fields.Put(static_cast<uint32_t>(meta.kind));
  fields.Put(meta.seed);
  fields.Put(meta.epoch);
  fields.Put(meta.epsilon);
  fields.Put(meta.num_nodes);
  fields.Put(uint32_t{0});  // reserved
  fields.Put(meta.graph_fingerprint);
  const SealedSection sections[kNumSections] = {
      {offsets.data(), offsets.size_bytes()},
      {members.data(), members.size_bytes()}};
  return WriteSealedFile(path, kFormat, fields.bytes(), sections, error);
}

SealedStatus LoadCorpusCheckpoint(const std::string& path,
                                  const CheckpointMeta& expected,
                                  RrCollection* corpus,
                                  CheckpointMeta* saved_meta,
                                  std::string* error) {
  SealedFile file;
  const SealedStatus status = SealedFile::Open(path, kFormat, &file, error);
  if (status != SealedStatus::kOk) return status;

  FieldReader fields(file.fields());
  CheckpointMeta meta;
  meta.kind = static_cast<DiffusionKind>(fields.Take<uint32_t>());
  meta.seed = fields.Take<uint64_t>();
  meta.epoch = fields.Take<uint64_t>();
  meta.epsilon = fields.Take<double>();
  meta.num_nodes = fields.Take<NodeId>();
  fields.Take<uint32_t>();  // reserved
  meta.graph_fingerprint = fields.Take<uint64_t>();
  if (meta.kind != expected.kind || meta.seed != expected.seed ||
      meta.num_nodes != expected.num_nodes ||
      meta.graph_fingerprint != expected.graph_fingerprint) {
    return Refuse(SealedStatus::kMismatch, error,
                  "checkpoint was taken for a different graph, seed, or "
                  "diffusion model");
  }

  // One copy from the mapping into the arenas; FromArenas then checks the
  // CSR invariants (offsets monotone from 0 to the member count, members
  // below num_nodes). Sections are 8-aligned, so the casts are aligned.
  const std::span<const uint8_t> offsets_bytes = file.section(kOffsets);
  const std::span<const uint8_t> members_bytes = file.section(kMembers);
  if (offsets_bytes.size() % sizeof(uint64_t) != 0 ||
      members_bytes.size() % sizeof(NodeId) != 0) {
    return Refuse(SealedStatus::kCorrupt, error, "malformed corpus arenas");
  }
  MappedArena<uint64_t> offsets;
  MappedArena<NodeId> members;
  offsets.append({reinterpret_cast<const uint64_t*>(offsets_bytes.data()),
                  offsets_bytes.size() / sizeof(uint64_t)});
  members.append({reinterpret_cast<const NodeId*>(members_bytes.data()),
                  members_bytes.size() / sizeof(NodeId)});
  if (!RrCollection::FromArenas(meta.num_nodes, std::move(members),
                                std::move(offsets), corpus)) {
    return Refuse(SealedStatus::kCorrupt, error, "malformed corpus arenas");
  }
  if (saved_meta != nullptr) *saved_meta = meta;
  return SealedStatus::kOk;
}

}  // namespace imbench
