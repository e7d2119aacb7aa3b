#include "framework/sealed_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "framework/fault.h"

namespace imbench {

namespace {

uint64_t Align8(uint64_t x) { return (x + 7) & ~uint64_t{7}; }

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string MagicName(const char* magic) {
  return std::string(magic, strnlen(magic, 8));
}

// Feeds the first `limit` bytes of `section` to `sink` in chunks; false if
// a file-backed section has fewer bytes than that.
template <typename Sink>
bool ForEachChunk(const SealedSection& section, uint64_t limit, Sink sink) {
  if (section.file == nullptr) {
    sink(section.data, limit);
    return true;
  }
  std::rewind(section.file);
  uint8_t buf[1 << 16];
  while (limit > 0) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(limit, sizeof buf));
    if (std::fread(buf, 1, want, section.file) != want) return false;
    sink(buf, want);
    limit -= want;
  }
  return true;
}

}  // namespace

const char* SealedStatusName(SealedStatus status) {
  switch (status) {
    case SealedStatus::kOk:
      return "ok";
    case SealedStatus::kMissing:
      return "missing";
    case SealedStatus::kIoError:
      return "io_error";
    case SealedStatus::kCorrupt:
      return "corrupt";
    case SealedStatus::kMismatch:
      return "mismatch";
  }
  return "?";
}

bool WriteSealedFile(const std::string& path, const SealedFormat& format,
                     std::span<const uint8_t> fields,
                     std::span<const SealedSection> sections,
                     std::string* error) {
  IMBENCH_CHECK(format.num_sections <= SealedFormat::kMaxSections &&
                format.field_bytes % 8 == 4);
  IMBENCH_CHECK(fields.size() == format.field_bytes);
  IMBENCH_CHECK(sections.size() == format.num_sections);

  uint64_t payload_checksum = kFnvBasis;
  for (const SealedSection& section : sections) {
    const bool read_ok = ForEachChunk(
        section, section.size, [&](const void* data, size_t size) {
          payload_checksum = Fnv1a(data, size, payload_checksum);
        });
    if (!read_ok) return Fail(error, "cannot read a section of " + path);
  }

  FieldWriter header;
  header.Raw(format.magic, sizeof format.magic);
  header.Put(format.version);
  header.Raw(fields.data(), fields.size());
  uint64_t offsets[SealedFormat::kMaxSections];
  uint64_t cursor = format.HeaderBytes();
  for (uint32_t s = 0; s < format.num_sections; ++s) {
    offsets[s] = Align8(cursor);
    cursor = offsets[s] + sections[s].size;
    header.Put(offsets[s]);
    header.Put(sections[s].size);
  }
  header.Put(payload_checksum);
  header.Put(Fnv1a(header.bytes().data(), header.bytes().size()));
  IMBENCH_CHECK(header.bytes().size() == format.HeaderBytes());

  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Fail(error, "cannot open " + path + " for writing");
  }
  uint64_t pos = 0;
  bool ok = true;
  auto write = [&](const void* data, size_t size) {
    ok = ok && (size == 0 || std::fwrite(data, 1, size, out) == size);
    pos += size;
  };
  write(header.bytes().data(), header.bytes().size());
  if (ok && !format.write_fault.empty() && FaultFire(format.write_fault)) {
    ForEachChunk(sections[0], sections[0].size / 2, write);
    std::fclose(out);
    return Fail(error, "injected torn write (" +
                           std::string(format.write_fault) + ")");
  }
  for (uint32_t s = 0; s < format.num_sections; ++s) {
    // Empty sections write no padding, so the file ends where its last
    // non-empty section ends.
    if (sections[s].size == 0) continue;
    static constexpr uint8_t kZeros[8] = {};
    write(kZeros, offsets[s] - pos);
    ok = ForEachChunk(sections[s], sections[s].size, write) && ok;
  }
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(path.c_str());
    return Fail(error, "write failed for " + path);
  }
  return true;
}

SealedFile& SealedFile::operator=(SealedFile&& other) noexcept {
  std::swap(map_, other.map_);
  std::swap(size_, other.size_);
  std::swap(field_bytes_, other.field_bytes_);
  std::swap(section_offset_, other.section_offset_);
  std::swap(section_size_, other.section_size_);
  return *this;
}

void SealedFile::Reset() {
  if (map_ != nullptr) ::munmap(map_, size_);
  map_ = nullptr;
  size_ = 0;
}

SealedStatus SealedFile::Open(const std::string& path,
                              const SealedFormat& format, SealedFile* out,
                              std::string* error) {
  IMBENCH_CHECK(format.num_sections <= SealedFormat::kMaxSections);
  const std::string name = MagicName(format.magic);
  auto injected = [error](std::string_view site) {
    if (site.empty() || !FaultFire(site)) return false;
    if (error != nullptr) *error = "injected " + std::string(site) + " fault";
    return true;
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Refuse(errno == ENOENT ? SealedStatus::kMissing
                                  : SealedStatus::kIoError,
                  error, "cannot open " + path);
  }
  if (injected(format.open_fault)) {
    ::close(fd);
    return SealedStatus::kIoError;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Refuse(SealedStatus::kIoError, error, "cannot stat " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  const size_t header_bytes = format.HeaderBytes();
  if (file_size < header_bytes) {
    ::close(fd);
    return Refuse(SealedStatus::kCorrupt, error,
                  "truncated " + name + " file (no full header): " + path);
  }
  if (injected(format.map_fault)) {
    ::close(fd);
    return SealedStatus::kIoError;
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) {
    return Refuse(SealedStatus::kIoError, error, "mmap failed for " + path);
  }
  SealedFile file;  // unmaps on every refusal below
  file.map_ = static_cast<uint8_t*>(map);
  file.size_ = file_size;
  file.field_bytes_ = format.field_bytes;
  const uint8_t* bytes = file.map_;
  auto refuse = [&](SealedStatus status, const std::string& message) {
    return Refuse(status, error, message + ": " + path);
  };

  // Magic and version first: another version's header has another shape,
  // so its checksum would only say "corrupt".
  if (std::memcmp(bytes, format.magic, format.family_bytes) != 0) {
    return refuse(SealedStatus::kCorrupt, "not a sealed " + name + " file");
  }
  if (std::memcmp(bytes, format.magic, sizeof format.magic) != 0) {
    return refuse(SealedStatus::kMismatch,
                  "unsupported version " +
                      MagicName(reinterpret_cast<const char*>(bytes)) +
                      " (reads " + name + ")");
  }
  FieldReader header(std::span<const uint8_t>(bytes, header_bytes));
  header.Skip(sizeof format.magic);
  const uint32_t version = header.Take<uint32_t>();
  header.Skip(format.field_bytes);
  uint64_t offset[SealedFormat::kMaxSections];
  uint64_t size[SealedFormat::kMaxSections];
  for (uint32_t s = 0; s < format.num_sections; ++s) {
    offset[s] = header.Take<uint64_t>();
    size[s] = header.Take<uint64_t>();
  }
  const uint64_t payload_checksum = header.Take<uint64_t>();
  if (header.Take<uint64_t>() !=
      Fnv1a(bytes, header_bytes - sizeof(uint64_t))) {
    return refuse(SealedStatus::kCorrupt, "header checksum mismatch");
  }
  if (version != format.version) {
    return refuse(SealedStatus::kMismatch,
                  "unsupported " + name + " version " +
                      std::to_string(version));
  }

  // The layout WriteSealedFile produces, and no other. Each size is
  // checked against the bytes left before it is added, so nothing here
  // overflows.
  uint64_t cursor = header_bytes;
  for (uint32_t s = 0; s < format.num_sections; ++s) {
    if (offset[s] != Align8(cursor)) {
      return refuse(SealedStatus::kCorrupt, "malformed section table");
    }
    if (size[s] > file_size - std::min(offset[s], file_size)) {
      return refuse(SealedStatus::kCorrupt,
                    "truncated " + name + " file (sections end past EOF)");
    }
    cursor = offset[s] + size[s];
    file.section_offset_[s] = size[s] > 0 ? offset[s] : header_bytes;
    file.section_size_[s] = size[s];
  }
  // After the last non-empty section only padding may follow: the zero
  // bytes up to a trailing empty section's offset. The writer stops before
  // them; older IMGRF01 files from WriteGraphFile carry them.
  if (file_size > cursor) {
    return refuse(SealedStatus::kCorrupt, "trailing bytes after the sections");
  }

  uint64_t checksum = kFnvBasis;
  uint64_t pos = header_bytes;
  auto zeros_up_to = [&](uint64_t limit) {
    for (; pos < limit; ++pos) {
      if (bytes[pos] != 0) return false;
    }
    return true;
  };
  for (uint32_t s = 0; s < format.num_sections; ++s) {
    if (size[s] == 0) continue;
    if (!zeros_up_to(offset[s])) {
      return refuse(SealedStatus::kCorrupt, "nonzero section padding");
    }
    checksum = Fnv1a(bytes + offset[s], size[s], checksum);
    pos = offset[s] + size[s];
  }
  if (!zeros_up_to(file_size)) {
    return refuse(SealedStatus::kCorrupt, "nonzero section padding");
  }
  if (checksum != payload_checksum) {
    return refuse(SealedStatus::kCorrupt,
                  "payload checksum mismatch (torn file?)");
  }
  *out = std::move(file);
  return SealedStatus::kOk;
}

}  // namespace imbench
