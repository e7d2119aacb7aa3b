// One sealed-file container for every checksummed file imbench writes and
// later trusts: the `.imgrf` graph (IMGRF01, graph/graph_file.h) and the
// warm-corpus checkpoint (IMCKPT02, service/checkpoint.h). A format names
// its magic, version, fixed header fields and sections; this module owns
// the rest: the one FNV-1a, the header codec, one writer, and one
// validating reader with one refusal status.
//
// Layout (native byte order, every field fixed width):
//
//   magic             8 bytes   family + version digits, e.g. "IMGRF01\0"
//   version           u32
//   format fields     SealedFormat::field_bytes (≡ 4 mod 8)
//   section table     num_sections x {u64 offset, u64 size}, 8-aligned
//   payload checksum  u64       FNV-1a of the sections' bytes, table order
//   header checksum   u64       FNV-1a of every header byte before it
//   sections          in table order, each at the 8-aligned end of the one
//                     before (the first right after the header), with zero
//                     padding between them
//
// The writer ends the file where its last non-empty section ends. An empty
// section keeps its aligned offset, which may lie just past that end; the
// reader also accepts zero padding up to that offset. It accepts nothing
// else: every header byte is under the header checksum, every section byte
// under the payload checksum, and every padding byte must be zero, so a
// flipped, truncated, extended or spliced file is refused.
#ifndef IMBENCH_FRAMEWORK_SEALED_FILE_H_
#define IMBENCH_FRAMEWORK_SEALED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace imbench {

// 64-bit FNV-1a: the sealed-file checksums, GraphFingerprint, corpus
// digests and fault-site hashes. A plain byte loop on purpose: the payload
// pass over a mapped graph file is part of every `.imgrf` open.
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

inline uint64_t Fnv1a(const void* data, size_t size, uint64_t h = kFnvBasis) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

enum class SealedStatus : uint8_t {
  kOk = 0,    // file opened and validated
  kMissing,   // no file at the path (a checkpoint's normal cold start)
  kIoError,   // open/stat/map/read failed
  kCorrupt,   // torn, truncated, flipped, or malformed bytes
  kMismatch,  // valid file of another version, graph, seed or model
};

const char* SealedStatusName(SealedStatus status);

// Sets *error (when non-null) to `message` and returns `status`.
inline SealedStatus Refuse(SealedStatus status, std::string* error,
                           const std::string& message) {
  if (error != nullptr) *error = message;
  return status;
}

struct SealedFormat {
  static constexpr uint32_t kMaxSections = 8;
  static constexpr size_t kMaxHeaderBytes = 256;

  char magic[8];
  // Leading magic bytes that name the family ("IMGRF", "IMCKPT"). A file
  // with the family but another magic is a valid file of another version
  // and is refused as kMismatch, not kCorrupt.
  uint32_t family_bytes;
  uint32_t version;
  uint32_t field_bytes;  // ≡ 4 (mod 8), so the section table is 8-aligned
  uint32_t num_sections;
  // Fault sites (framework/fault.h), empty for none. open_fault fires
  // right after the file opened, map_fault just before the mmap, both as
  // kIoError; write_fault fires after the header is written and tears the
  // payload, leaving a valid header over half of the first section.
  std::string_view open_fault = {};
  std::string_view map_fault = {};
  std::string_view write_fault = {};

  constexpr size_t HeaderBytes() const {
    return 8 + 4 + field_bytes + 16 * num_sections + 8 + 8;
  }
};

// The header codec: fixed-width values appended or taken in one order.
// Formats use it for their fields; the container for the rest.
class FieldWriter {
 public:
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&value, sizeof value);
  }
  void Raw(const void* data, size_t size) {
    IMBENCH_CHECK(size_ + size <= sizeof bytes_);
    std::memcpy(bytes_ + size_, data, size);
    size_ += size;
  }
  std::span<const uint8_t> bytes() const { return {bytes_, size_}; }

 private:
  uint8_t bytes_[SealedFormat::kMaxHeaderBytes] = {};
  size_t size_ = 0;
};

class FieldReader {
 public:
  explicit FieldReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}
  template <typename T>
  T Take() {
    static_assert(std::is_trivially_copyable_v<T>);
    IMBENCH_CHECK(pos_ + sizeof(T) <= bytes_.size());
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof value);
    pos_ += sizeof value;
    return value;
  }
  void Skip(size_t size) {
    IMBENCH_CHECK(pos_ + size <= bytes_.size());
    pos_ += size;
  }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

// One section handed to WriteSealedFile: `size` bytes at `data`, or, when
// `file` is set, the first `size` bytes of that file.
struct SealedSection {
  const void* data = nullptr;
  uint64_t size = 0;
  std::FILE* file = nullptr;
};

// Writes a sealed file: header (with `fields`, format.field_bytes long),
// then the sections. Computes the payload checksum first, so file-backed
// sections are read twice. Returns false with *error on failure and
// removes the destination, except after an injected write_fault, whose
// torn file stays on disk for the recovery path to refuse.
bool WriteSealedFile(const std::string& path, const SealedFormat& format,
                     std::span<const uint8_t> fields,
                     std::span<const SealedSection> sections,
                     std::string* error);

// A validated file, mapped read-only. Holds no heap memory: the section
// table is fixed size and the mapping is released on destruction.
class SealedFile {
 public:
  SealedFile() = default;
  ~SealedFile() { Reset(); }
  SealedFile(SealedFile&& other) noexcept { *this = std::move(other); }
  SealedFile& operator=(SealedFile&& other) noexcept;
  SealedFile(const SealedFile&) = delete;
  SealedFile& operator=(const SealedFile&) = delete;

  // Opens, maps and validates `path` as `format`: magic and version, both
  // checksums, the section layout and the zero padding. On any status but
  // kOk, *out is left empty and *error (when non-null) says why.
  static SealedStatus Open(const std::string& path, const SealedFormat& format,
                           SealedFile* out, std::string* error);

  // The accessors below are valid while mapped().
  bool mapped() const { return map_ != nullptr; }
  const uint8_t* data() const { return map_; }
  uint64_t size() const { return size_; }
  std::span<const uint8_t> fields() const { return {map_ + 12, field_bytes_}; }
  std::span<const uint8_t> section(uint32_t s) const {
    return {map_ + section_offset_[s], section_size_[s]};
  }

  void Reset();

 private:
  uint8_t* map_ = nullptr;
  uint64_t size_ = 0;
  uint32_t field_bytes_ = 0;
  // Empty sections point at the end of the header, never past the file.
  uint64_t section_offset_[SealedFormat::kMaxSections] = {};
  uint64_t section_size_[SealedFormat::kMaxSections] = {};
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_SEALED_FILE_H_
