#include "framework/mapped_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "framework/memory.h"

namespace imbench {
namespace mapped_arena_internal {

size_t PageRound(size_t bytes) {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  IMBENCH_CHECK(bytes <= SIZE_MAX - page);
  return (bytes + page - 1) / page * page;
}

void* Remap(void* old, size_t old_bytes, size_t new_bytes) {
  void* data = old == nullptr
                   ? mmap(nullptr, new_bytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                   : mremap(old, old_bytes, new_bytes, MREMAP_MAYMOVE);
  IMBENCH_CHECK_MSG(data != MAP_FAILED, "mapping %zu bytes failed: %s",
                    new_bytes, std::strerror(errno));
  AccountMappedBytes(static_cast<int64_t>(new_bytes) -
                     static_cast<int64_t>(old_bytes));
  return data;
}

void Unmap(void* data, size_t bytes) {
  IMBENCH_CHECK(munmap(data, bytes) == 0);
  AccountMappedBytes(-static_cast<int64_t>(bytes));
}

}  // namespace mapped_arena_internal
}  // namespace imbench
