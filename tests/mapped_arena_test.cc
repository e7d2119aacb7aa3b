// MappedArena (framework/mapped_arena.h): contents across every growth
// path, the growth rule, and the accounting contract — every mapped byte is
// in CurrentHeapBytes()/PeakHeapBytes() from map to unmap, and an RR corpus
// built on arenas still trips a RunGuard heap budget. Also the page-fault
// regression the arenas exist for: growing a corpus in place must fault
// far fewer pages than the same appends into std::vectors.
#include "framework/mapped_arena.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/memory.h"
#include "framework/run_guard.h"
#include "graph/weights.h"

namespace imbench {
namespace {

// The oracle's own page rounding, independent of the arena's.
uint64_t Pages(uint64_t bytes) {
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

// The documented growth rule: an append that needs `need` elements grows
// the mapping to max(need bytes, mapped + mapped / 8), page-rounded.
uint64_t GrownBytes(uint64_t mapped, uint64_t need, uint64_t elem) {
  return Pages(std::max(need * elem, mapped + mapped / 8));
}

std::vector<uint32_t> Iota(uint32_t n, uint32_t from) {
  std::vector<uint32_t> values(n);
  std::iota(values.begin(), values.end(), from);
  return values;
}

TEST(MappedArenaTest, EveryGrowthPathKeepsContentsAndAccountsExactly) {
  // All test data is allocated before the baseline, so the heap counter
  // moves only by what the arenas map and unmap.
  const std::vector<uint32_t> steps = {1, 1000, 5, 70000, 3, 1024, 250000};
  std::vector<std::vector<uint32_t>> chunks;
  uint32_t total = 0;
  for (const uint32_t step : steps) {
    chunks.push_back(Iota(step, total));
    total += step;
  }
  const uint64_t baseline = CurrentHeapBytes();
  {
    MappedArena<uint32_t> a;
    EXPECT_EQ(a.MemoryBytes(), 0u);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(CurrentHeapBytes(), baseline);

    // Uneven appends: each growth follows the rule, and the heap counter
    // and the peak move by exactly the mapped delta.
    uint64_t mapped = 0;
    uint32_t size = 0;
    for (const auto& chunk : chunks) {
      ResetPeakHeapBytes();
      size += static_cast<uint32_t>(chunk.size());
      if (uint64_t{size} * sizeof(uint32_t) > mapped) {
        mapped = GrownBytes(mapped, size, sizeof(uint32_t));
      }
      a.append(chunk);
      ASSERT_EQ(a.size(), size);
      EXPECT_EQ(a.MemoryBytes(), mapped) << "size " << size;
      EXPECT_EQ(a.capacity(), mapped / sizeof(uint32_t));
      EXPECT_EQ(CurrentHeapBytes(), baseline + mapped);
      EXPECT_EQ(PeakHeapBytes(), baseline + mapped);
    }
    for (uint32_t i = 0; i < total; ++i) ASSERT_EQ(a[i], i);

    // One element at a time through push_back and Extend.
    for (uint32_t i = 0; i < 5000; ++i) {
      if (a.size() == a.capacity()) {
        mapped = GrownBytes(mapped, a.size() + 1, sizeof(uint32_t));
      }
      if (i % 2 == 0) {
        a.push_back(total + i);
      } else {
        *a.Extend(1) = total + i;
      }
      ASSERT_EQ(a.MemoryBytes(), mapped);
    }
    total += 5000;
    for (uint32_t i = 0; i < total; ++i) ASSERT_EQ(a[i], i);
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped);

    // Shrink keeps the mapping and the prefix; regrowth zero-fills the
    // elements past the old size even where stale values sit.
    a.resize(10);
    EXPECT_EQ(a.size(), 10u);
    EXPECT_EQ(a.MemoryBytes(), mapped);
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped);
    a.resize(20);
    for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(a[i], i);
    for (uint32_t i = 10; i < 20; ++i) EXPECT_EQ(a[i], 0u);
    a.resize(total);
    EXPECT_EQ(a.MemoryBytes(), mapped);
    std::iota(a.begin(), a.end(), 0u);

    // reserve() maps exactly the page-rounded request, never less.
    a.reserve(10);
    EXPECT_EQ(a.MemoryBytes(), mapped);
    ResetPeakHeapBytes();
    a.reserve(a.capacity() + 1);
    EXPECT_EQ(a.MemoryBytes(), Pages(mapped + sizeof(uint32_t)));
    mapped = a.MemoryBytes();
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped);
    EXPECT_EQ(PeakHeapBytes(), baseline + mapped);

    // A copy maps the page-rounded size of its source, not its capacity,
    // and is independent of it.
    MappedArena<uint32_t> b(a);
    const uint64_t copy_bytes = Pages(uint64_t{total} * sizeof(uint32_t));
    EXPECT_EQ(b.MemoryBytes(), copy_bytes);
    EXPECT_TRUE(std::ranges::equal(std::span<const uint32_t>(a),
                                   std::span<const uint32_t>(b)));
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped + copy_bytes);
    b[0] = 99;
    EXPECT_EQ(a[0], 0u);

    // Move construction steals the mapping; the source is empty and
    // reusable.
    MappedArena<uint32_t> c(std::move(b));
    EXPECT_EQ(c.MemoryBytes(), copy_bytes);
    EXPECT_EQ(c[0], 99u);
    EXPECT_EQ(b.size(), 0u);           // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.MemoryBytes(), 0u);    // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.data(), nullptr);      // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped + copy_bytes);
    b.push_back(7);
    EXPECT_EQ(b[0], 7u);
    EXPECT_EQ(b.MemoryBytes(), Pages(sizeof(uint32_t)));
    EXPECT_EQ(CurrentHeapBytes(),
              baseline + mapped + copy_bytes + Pages(sizeof(uint32_t)));

    // Copy assignment replaces the target's mapping; move assignment
    // releases it.
    b = a;
    EXPECT_EQ(b.MemoryBytes(), copy_bytes);
    EXPECT_EQ(b[total - 1], total - 1);
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped + 2 * copy_bytes);
    b = std::move(c);
    EXPECT_EQ(b[0], 99u);
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped + copy_bytes);
    c = MappedArena<uint32_t>();
    EXPECT_EQ(CurrentHeapBytes(), baseline + mapped + copy_bytes);
  }
  // Destruction unmaps and un-accounts everything.
  EXPECT_EQ(CurrentHeapBytes(), baseline);
}

TEST(MappedArenaTest, CorpusBytesAreHeapBytes) {
  // Until the index is built the arenas are the corpus' only storage, so
  // the heap counter moves by exactly MemoryBytes() minus the object header
  // (on the stack here). The index adds its arena plus one heap vector of
  // per-node offsets, whose heap block malloc may round up slightly.
  constexpr NodeId kNodes = 1000;
  std::vector<uint32_t> sizes(3000);
  for (size_t i = 0; i < sizes.size(); ++i) sizes[i] = 1 + i % 5;
  std::vector<NodeId> members(
      std::accumulate(sizes.begin(), sizes.end(), size_t{0}));
  for (size_t i = 0; i < members.size(); ++i) members[i] = (i * 7) % kNodes;
  const uint64_t baseline = CurrentHeapBytes();
  {
    RrCollection corpus(kNodes);
    EXPECT_EQ(corpus.MemoryBytes(),
              Pages(sizeof(uint64_t)) + sizeof(RrCollection));
    EXPECT_EQ(CurrentHeapBytes() - baseline,
              corpus.MemoryBytes() - sizeof(RrCollection));
    for (int round = 0; round < 4; ++round) {
      corpus.AppendBatch(members, sizes);
      EXPECT_EQ(CurrentHeapBytes() - baseline,
                corpus.MemoryBytes() - sizeof(RrCollection));
    }
    const uint64_t forward_bytes = corpus.MemoryBytes();
    corpus.GreedyMaxCover(5);
    EXPECT_EQ(corpus.MemoryBytes(),
              forward_bytes + (uint64_t{kNodes} + 1) * sizeof(uint64_t) +
                  Pages(corpus.TotalEntries() * sizeof(uint32_t)));
    const uint64_t held = CurrentHeapBytes() - baseline;
    EXPECT_GE(held, corpus.MemoryBytes() - sizeof(RrCollection));
    EXPECT_LE(held, corpus.MemoryBytes() - sizeof(RrCollection) + 64);
  }
  EXPECT_EQ(CurrentHeapBytes(), baseline);
}

TEST(MappedArenaTest, HeapBudgetStillStopsTheSampler) {
  // A RunGuard heap cap below the corpus size must stop generation with
  // kMemory: the mapped arenas count against the budget like heap blocks.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  constexpr uint64_t kBudget = uint64_t{4} << 20;
  RunBudget budget;
  budget.max_heap_bytes = kBudget;
  RunGuard guard(budget);
  RrSampler sampler(g, DiffusionKind::kIndependentCascade, &guard);
  RrCollection corpus(g.num_nodes());
  const uint64_t requested = 50'000'000;
  const RrBatchResult result = sampler.Generate(3, requested, corpus);
  EXPECT_EQ(result.stop, StopReason::kMemory);
  EXPECT_LT(result.generated, requested);
  EXPECT_EQ(corpus.size(), result.generated);
  // The trip came from the arenas: they hold most of the budget (the
  // sampler's own buffers are a few KiB).
  EXPECT_GE(corpus.MemoryBytes(), kBudget / 2);
}

// Poisoning is only observable under AddressSanitizer, so the test exists
// only in that build (the asan preset).
#if defined(__SANITIZE_ADDRESS__)
TEST(MappedArenaDeathTest, ReadPastSizeIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MappedArena<uint32_t> a;
  a.resize(3);
  const volatile uint32_t* data = a.data();
  EXPECT_DEATH((void)data[3], "use-after-poison");
  // After a growth, and after a shrink, the new tail is poisoned too.
  a.resize(5000);
  data = a.data();
  EXPECT_DEATH((void)data[5000], "use-after-poison");
  a.resize(7);
  EXPECT_DEATH((void)data[7], "use-after-poison");
  // The live prefix stays readable.
  EXPECT_EQ(data[6], 0u);
}
#endif  // __SANITIZE_ADDRESS__

// Minor page faults taken by the calling thread so far.
uint64_t ThreadMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

TEST(MappedArenaTest, CorpusGrowthFaultsFarFewerPagesThanVectors) {
  // Transparent huge pages would make both counts depend on the host's
  // THP mode; disable them for this process while measuring.
  const int thp_was_disabled = prctl(PR_GET_THP_DISABLE, 0, 0, 0, 0);
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  // One batch of 8192 sets of sizes 1..4, appended until the two forward
  // arrays pass 64 MiB.
  constexpr NodeId kNodes = 1000;
  std::vector<uint32_t> sizes(8192);
  for (size_t i = 0; i < sizes.size(); ++i) sizes[i] = 1 + i % 4;
  const uint64_t batch_entries =
      std::accumulate(sizes.begin(), sizes.end(), uint64_t{0});
  std::vector<NodeId> members(batch_entries);
  for (size_t i = 0; i < members.size(); ++i) members[i] = i % kNodes;
  const uint64_t batch_bytes =
      batch_entries * sizeof(NodeId) + sizes.size() * sizeof(uint64_t);
  const uint64_t batches = (uint64_t{64} << 20) / batch_bytes + 1;

  uint64_t arena_faults = 0;
  {
    RrCollection corpus(kNodes);
    const uint64_t before = ThreadMinorFaults();
    for (uint64_t b = 0; b < batches; ++b) corpus.AppendBatch(members, sizes);
    arena_faults = ThreadMinorFaults() - before;
    ASSERT_EQ(corpus.TotalEntries(), batches * batch_entries);
  }
  uint64_t vector_faults = 0;
  {
    // The same appends the corpus made before its arenas were mapped.
    std::vector<NodeId> flat;
    std::vector<uint64_t> offsets = {0};
    const uint64_t before = ThreadMinorFaults();
    for (uint64_t b = 0; b < batches; ++b) {
      flat.insert(flat.end(), members.begin(), members.end());
      uint64_t offset = offsets.back();
      for (const uint32_t size : sizes) {
        offset += size;
        offsets.push_back(offset);
      }
    }
    vector_faults = ThreadMinorFaults() - before;
    ASSERT_EQ(flat.size(), batches * batch_entries);
  }
  prctl(PR_SET_THP_DISABLE, thp_was_disabled == 1 ? 1 : 0, 0, 0, 0);
  RecordProperty("arena_faults", static_cast<int>(arena_faults));
  RecordProperty("vector_faults", static_cast<int>(vector_faults));
  EXPECT_LE(arena_faults * 10, vector_faults * 6)
      << "arena " << arena_faults << " faults, vector " << vector_faults;
}

}  // namespace
}  // namespace imbench
