// A growable array of trivially copyable elements in its own anonymous
// memory mapping: the storage behind the RR corpus arenas
// (diffusion/rr_sets.h), which grow by millions of entries per IMM round.
//
// Growth is mremap(MREMAP_MAYMOVE). The kernel moves page tables, so a
// growing arena never holds two copies at once and never copies or
// re-faults a page it already touched. A std::vector reallocation holds the
// old and the new block together and faults every page of the new one in.
//
// Growth rule, a constant: an append past the capacity grows the mapping
// to max(needed bytes, mapped bytes + mapped bytes / 8), page-rounded.
// reserve() grows to exactly the page-rounded request. The mapping never
// shrinks: resize() down and clear() keep it, as std::vector keeps its
// capacity.
//
// Accounting: the whole page-rounded mapping length counts in
// CurrentHeapBytes()/PeakHeapBytes() (framework/memory.h) from map to unmap,
// touched or not, so peak-heap metrics and RunGuard heap budgets see the
// arena like any heap block. MemoryBytes() is that same length.
//
// Under AddressSanitizer the unused tail [size(), capacity()) is poisoned,
// so a read past size() is reported as it is for a heap block. (The macros
// do nothing in other builds.)
#ifndef IMBENCH_FRAMEWORK_MAPPED_ARENA_H_
#define IMBENCH_FRAMEWORK_MAPPED_ARENA_H_

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace imbench {

namespace mapped_arena_internal {

// `bytes` rounded up to a whole number of pages.
size_t PageRound(size_t bytes);

// Maps `new_bytes` (page-rounded, > 0) when `old` is null, else grows the
// mapping [old, old + old_bytes) to `new_bytes` in place or by moving it.
// Accounts the delta; aborts if the kernel refuses.
void* Remap(void* old, size_t old_bytes, size_t new_bytes);

// Unmaps [data, data + bytes) and accounts the release.
void Unmap(void* data, size_t bytes);

}  // namespace mapped_arena_internal

template <typename T>
class MappedArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "MappedArena moves its elements as raw pages");

 public:
  MappedArena() = default;
  // A copy maps exactly the page-rounded size() of `other` (none if empty).
  MappedArena(const MappedArena& other) { append(other); }
  MappedArena(MappedArena&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  // By value: copy-and-swap for an lvalue, a plain move for an rvalue.
  MappedArena& operator=(MappedArena other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(bytes_, other.bytes_);
    return *this;
  }
  ~MappedArena() {
    if (data_ == nullptr) return;
    UnpoisonTail();
    mapped_arena_internal::Unmap(data_, bytes_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return bytes_ / sizeof(T); }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }
  operator std::span<const T>() const { return {data_, size_}; }

  // Mapped bytes: the page-rounded mapping length, 0 before the first
  // growth.
  uint64_t MemoryBytes() const { return bytes_; }

  // Appends `n` elements left as the mapping holds them (zero on a page
  // never written, stale after a shrink) and returns the first, for the
  // caller to fill.
  T* Extend(size_t n) {
    if (n > capacity() - size_) Grow(size_ + n);
    T* first = data_ + size_;
    ASAN_UNPOISON_MEMORY_REGION(first, n * sizeof(T));
    size_ += n;
    return first;
  }
  void push_back(const T& value) { *Extend(1) = value; }
  void append(std::span<const T> values) {
    if (values.empty()) return;
    std::memcpy(Extend(values.size()), values.data(), values.size_bytes());
  }
  // Sets size() to `n`; elements past the old size are zero.
  void resize(size_t n) {
    if (n > size_) {
      const size_t added = n - size_;
      std::memset(Extend(added), 0, added * sizeof(T));
    } else {
      ASAN_POISON_MEMORY_REGION(data_ + n, (size_ - n) * sizeof(T));
      size_ = n;
    }
  }
  void clear() { resize(0); }
  // Grows the mapping to exactly `n` elements, page-rounded, if it holds
  // fewer.
  void reserve(size_t n) {
    if (n <= capacity()) return;
    IMBENCH_CHECK(n <= SIZE_MAX / sizeof(T));
    Remap(mapped_arena_internal::PageRound(n * sizeof(T)));
  }

 private:
  void Grow(size_t need) {
    IMBENCH_CHECK(need <= SIZE_MAX / sizeof(T));
    Remap(mapped_arena_internal::PageRound(
        std::max(need * sizeof(T), bytes_ + bytes_ / 8)));
  }
  void Remap(size_t new_bytes) {
    UnpoisonTail();
    data_ = static_cast<T*>(
        mapped_arena_internal::Remap(data_, bytes_, new_bytes));
    bytes_ = new_bytes;
    ASAN_POISON_MEMORY_REGION(data_ + size_, bytes_ - size_ * sizeof(T));
  }
  // The shadow of a range about to be moved or unmapped must not stay
  // poisoned for whatever is mapped there next.
  void UnpoisonTail() {
    ASAN_UNPOISON_MEMORY_REGION(data_ + size_, bytes_ - size_ * sizeof(T));
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t bytes_ = 0;  // mapping length; 0 = no mapping
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_MAPPED_ARENA_H_
