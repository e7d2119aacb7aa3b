// Process-wide heap accounting for the memory-footprint benchmarks
// (Fig. 8, Table 3).
//
// The library overrides the global operator new/delete pair and keeps
// current / peak byte counters (exact sizes via glibc malloc_usable_size).
// Memory the library maps itself (framework/mapped_arena.h) enters the same
// counters through AccountMappedBytes, so "heap" below means both.
// Harnesses call ResetPeakHeapBytes() before a run and read the peak after;
// the delta over the pre-run current usage is the algorithm's working
// memory, excluding the shared graph.
#ifndef IMBENCH_FRAMEWORK_MEMORY_H_
#define IMBENCH_FRAMEWORK_MEMORY_H_

#include <cstdint>

namespace imbench {

// Bytes currently allocated through operator new or mapped by the library.
uint64_t CurrentHeapBytes();

// High-water mark since process start or the last ResetPeakHeapBytes().
uint64_t PeakHeapBytes();

// Sets the peak to the current usage.
void ResetPeakHeapBytes();

// Adds `delta` mapped bytes to the current usage (negative on unmap) and
// raises the peak on growth: the one entry point for memory that does not
// come from operator new.
void AccountMappedBytes(int64_t delta);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_MEMORY_H_
