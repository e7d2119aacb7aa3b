#include "framework/memory.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace imbench {
namespace {

std::atomic<uint64_t> g_current_bytes{0};
std::atomic<uint64_t> g_peak_bytes{0};

void AccountGrowth(uint64_t size) {
  const uint64_t current =
      g_current_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (current > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, current,
                                             std::memory_order_relaxed)) {
  }
}

void AccountAlloc(void* ptr) {
  if (ptr == nullptr) return;
  AccountGrowth(malloc_usable_size(ptr));
}

void AccountFree(void* ptr) {
  if (ptr == nullptr) return;
  g_current_bytes.fetch_sub(malloc_usable_size(ptr),
                            std::memory_order_relaxed);
}

}  // namespace

uint64_t CurrentHeapBytes() {
  return g_current_bytes.load(std::memory_order_relaxed);
}

uint64_t PeakHeapBytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

void ResetPeakHeapBytes() {
  g_peak_bytes.store(g_current_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

void AccountMappedBytes(int64_t delta) {
  if (delta >= 0) {
    AccountGrowth(static_cast<uint64_t>(delta));
  } else {
    g_current_bytes.fetch_sub(static_cast<uint64_t>(-delta),
                              std::memory_order_relaxed);
  }
}

}  // namespace imbench

// --- Global allocation hooks -----------------------------------------------
//
// Covers the plain, nothrow, and aligned forms; array forms funnel into the
// same functions per the standard's default behavior is replaced too.

void* operator new(std::size_t size) {
  void* ptr = std::malloc(size ? size : 1);
  if (ptr == nullptr) throw std::bad_alloc();
  imbench::AccountAlloc(ptr);
  return ptr;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = std::malloc(size ? size : 1);
  imbench::AccountAlloc(ptr);
  return ptr;
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = std::aligned_alloc(static_cast<std::size_t>(align),
                                 ((size + static_cast<std::size_t>(align) - 1) /
                                  static_cast<std::size_t>(align)) *
                                     static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  imbench::AccountAlloc(ptr);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* ptr) noexcept {
  imbench::AccountFree(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept { ::operator delete(ptr); }

void operator delete(void* ptr, std::size_t) noexcept {
  ::operator delete(ptr);
}

void operator delete[](void* ptr, std::size_t) noexcept {
  ::operator delete(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  ::operator delete(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  ::operator delete(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  imbench::AccountFree(ptr);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t align) noexcept {
  ::operator delete(ptr, align);
}

void operator delete(void* ptr, std::size_t, std::align_val_t align) noexcept {
  ::operator delete(ptr, align);
}

void operator delete[](void* ptr, std::size_t,
                       std::align_val_t align) noexcept {
  ::operator delete(ptr, align);
}
