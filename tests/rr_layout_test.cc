// Differential coverage for the flat-arena RR corpus: the CSR layout must
// be observationally identical to the vector-of-vectors baseline it
// replaced (bench/legacy_rr_corpus.h) — same sets for the same seeds, same
// greedy max-cover seeds and covered fractions (which pins the degree-bucket
// cover to the legacy lazy heap's tie-breaking at every corpus size), and
// the same TruncateTo semantics across parallel batch boundaries.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>
#include "bench/legacy_rr_corpus.h"
#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

Graph WcGraph() {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  return g;
}

template <typename Corpus>
void FillFromSampler(const Graph& g, uint64_t seed, uint64_t count,
                     Corpus& corpus) {
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> scratch;
  for (uint64_t i = 0; i < count; ++i) {
    sampler.GenerateStream(seed, i, scratch);
    corpus.AppendSet(scratch);
  }
}

TEST(RrLayoutTest, FlatMatchesLegacySetsAndTotals) {
  const Graph g = WcGraph();
  RrCollection flat(g.num_nodes());
  LegacyRrCorpus legacy(g.num_nodes());
  FillFromSampler(g, 21, 600, flat);
  FillFromSampler(g, 21, 600, legacy);

  ASSERT_EQ(flat.size(), legacy.size());
  EXPECT_EQ(flat.TotalEntries(), legacy.TotalEntries());
  for (size_t i = 0; i < flat.size(); ++i) {
    const auto a = flat.Set(i);
    const auto b = legacy.Set(i);
    ASSERT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << i;
  }
}

TEST(RrLayoutTest, GreedyMaxCoverMatchesLegacyAcrossK) {
  const Graph g = WcGraph();
  RrCollection flat(g.num_nodes());
  LegacyRrCorpus legacy(g.num_nodes());
  FillFromSampler(g, 33, 800, flat);
  FillFromSampler(g, 33, 800, legacy);

  for (const uint32_t k : {1u, 4u, 16u, 64u}) {
    double flat_fraction = 0, legacy_fraction = 0;
    EXPECT_EQ(flat.GreedyMaxCover(k, &flat_fraction),
              legacy.GreedyMaxCover(k, &legacy_fraction))
        << k;
    EXPECT_DOUBLE_EQ(flat_fraction, legacy_fraction) << k;
  }
}

TEST(RrLayoutTest, DegreeBucketVariantMatchesLegacyHeapOnLargeCorpus) {
  // The legacy baseline uses the lazy heap, so equality here pins the
  // degree buckets' (max degree, max node id) tie-breaking exactly on a
  // large corpus. Tiny node count + many sets maximizes degree ties.
  constexpr NodeId kNodes = 40;
  constexpr uint64_t kSets = 6000;
  RrCollection flat(kNodes);
  LegacyRrCorpus legacy(kNodes);
  Rng rng(99);
  std::vector<NodeId> scratch;
  for (uint64_t i = 0; i < kSets; ++i) {
    scratch.clear();
    const uint32_t size = 1 + rng.NextU32(5);
    // Distinct members via rejection; sets are tiny relative to kNodes.
    for (uint32_t j = 0; j < size; ++j) {
      NodeId v = rng.NextU32(kNodes);
      while (std::find(scratch.begin(), scratch.end(), v) != scratch.end()) {
        v = rng.NextU32(kNodes);
      }
      scratch.push_back(v);
    }
    flat.AppendSet(scratch);
    legacy.AppendSet(scratch);
  }
  for (const uint32_t k : {1u, 3u, 10u, 40u}) {
    double flat_fraction = 0, legacy_fraction = 0;
    EXPECT_EQ(flat.GreedyMaxCover(k, &flat_fraction),
              legacy.GreedyMaxCover(k, &legacy_fraction))
        << k;
    EXPECT_DOUBLE_EQ(flat_fraction, legacy_fraction) << k;
  }
}

TEST(RrLayoutTest, AppendBatchMatchesPerSetAppend) {
  RrCollection batched(10);
  RrCollection individual(10);
  const std::vector<NodeId> members = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<uint32_t> sizes = {3, 1, 0, 4, 2};  // includes an empty set
  batched.AppendBatch(members, sizes);

  size_t offset = 0;
  for (const uint32_t size : sizes) {
    individual.AppendSet(
        std::span<const NodeId>(members.data() + offset, size));
    offset += size;
  }
  ASSERT_EQ(batched.size(), individual.size());
  EXPECT_EQ(batched.TotalEntries(), individual.TotalEntries());
  for (size_t i = 0; i < batched.size(); ++i) {
    const auto a = batched.Set(i);
    const auto b = individual.Set(i);
    EXPECT_EQ(std::vector<NodeId>(a.begin(), a.end()),
              std::vector<NodeId>(b.begin(), b.end()))
        << i;
  }
  EXPECT_EQ(batched.GreedyMaxCover(3), individual.GreedyMaxCover(3));
}

TEST(RrLayoutTest, TruncateAcrossParallelBatchBoundaries) {
  // Generate on four lanes (64-set batches spliced block-wise), truncate
  // to a size that lands mid-batch, and verify the survivor arena against
  // single-set draws — then keep appending to prove the arena recovers
  // from a rollback.
  const Graph g = WcGraph();
  ThreadPool pool(3);
  SamplerOptions options;
  options.threads = 4;
  options.pool = &pool;
  RrSampler sampler(g, options);
  RrCollection corpus(g.num_nodes());
  ASSERT_EQ(sampler.Generate(13, 700, corpus, nullptr).generated, 700u);

  corpus.TruncateTo(131);  // 131 = 2*64 + 3: inside the third batch
  ASSERT_EQ(corpus.size(), 131u);

  RrSampler sequential(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> expected;
  uint64_t expected_entries = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    sequential.GenerateStream(13, i, expected);
    expected_entries += expected.size();
    const auto actual = corpus.Set(i);
    ASSERT_EQ(std::vector<NodeId>(actual.begin(), actual.end()), expected)
        << i;
  }
  EXPECT_EQ(corpus.TotalEntries(), expected_entries);

  // Appends after a truncation start exactly where the rollback left off.
  corpus.AppendSet(std::vector<NodeId>{1, 2, 3});
  EXPECT_EQ(corpus.size(), 132u);
  const auto tail = corpus.Set(131);
  EXPECT_EQ(std::vector<NodeId>(tail.begin(), tail.end()),
            (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(corpus.TotalEntries(), expected_entries + 3);
}

TEST(RrLayoutTest, TruncateToCurrentOrLargerSizeIsANoOp) {
  RrCollection c(5);
  c.Add({0, 1});
  c.Add({2});
  c.TruncateTo(2);
  c.TruncateTo(10);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.TotalEntries(), 3u);
}

TEST(RrLayoutTest, EmptyCorpusCoverPadsSeedsWithZeroFraction) {
  RrCollection c(6);
  double fraction = 1.0;
  const std::vector<NodeId> seeds = c.GreedyMaxCover(3, &fraction);
  EXPECT_EQ(seeds, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(fraction, 0.0);
}

TEST(RrLayoutTest, KBeyondLiveNodesPadsDeterministically) {
  // Only nodes 3 and 4 appear in any set; k = 4 must take the live nodes
  // greedily, then pad with the smallest unchosen ids.
  RrCollection c(6);
  c.Add({3, 4});
  c.Add({3});
  double fraction = 0;
  const std::vector<NodeId> seeds = c.GreedyMaxCover(4, &fraction);
  ASSERT_EQ(seeds.size(), 4u);
  EXPECT_EQ(seeds[0], 3u);  // covers both sets
  EXPECT_EQ(std::vector<NodeId>(seeds.begin() + 1, seeds.end()),
            (std::vector<NodeId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(fraction, 1.0);
}

TEST(RrLayoutTest, PrefixLimitZeroDegradesToPadOrder) {
  // A zero-set prefix covers nothing, so the cover must degrade to the
  // PadSeeds order {0, 1, 2} — not pick by whole-corpus degree. (This
  // regressed silently before PrefixDegree short-circuited limit == 0: the
  // upper_bound probe wrapped limit - 1 to UINT32_MAX and reported full
  // degrees, so node 5 was "best" despite the empty prefix.)
  RrCollection c(8);
  c.Add({5, 6});
  c.Add({5});
  double fraction = 1.0;
  const std::vector<NodeId> seeds = c.GreedyMaxCoverPrefix(3, 0, &fraction);
  EXPECT_EQ(seeds, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(fraction, 0.0);
  // k = 0 on the empty prefix is a full no-op.
  fraction = 1.0;
  EXPECT_TRUE(c.GreedyMaxCoverPrefix(0, 0, &fraction).empty());
  EXPECT_DOUBLE_EQ(fraction, 0.0);
}

TEST(RrLayoutTest, PrefixLimitedCoverEdgeCasesMatchAcrossEngines) {
  // Alternating {10} / {11} singleton sets: both nodes tie on degree in
  // every even-sized prefix, so the first pick exercises the (max degree,
  // largest node id) tie-break under a short and a full prefix limit;
  // k = 5 > 2 live nodes exercises the pad tail under a prefix limit.
  constexpr NodeId kNodes = 16;
  RrCollection c(kNodes);
  for (int i = 0; i < 5000; ++i) {
    c.Add(i % 2 == 0 ? std::vector<NodeId>{10} : std::vector<NodeId>{11});
  }
  const std::vector<NodeId> expected = {11, 10, 0, 1, 2};
  for (const size_t limit : {size_t{100}, size_t{5000}}) {
    double fraction = -1;
    EXPECT_EQ(c.GreedyMaxCoverPrefix(5, limit, &fraction), expected)
        << "limit=" << limit;
    EXPECT_DOUBLE_EQ(fraction, 1.0) << "limit=" << limit;
    // k = 0 under the same prefix: no picks, nothing covered.
    fraction = -1;
    EXPECT_TRUE(c.GreedyMaxCoverPrefix(0, limit, &fraction).empty())
        << "limit=" << limit;
    EXPECT_DOUBLE_EQ(fraction, 0.0) << "limit=" << limit;
  }
}

// The inverted index is extended in place over each appended tail and
// reset by TruncateTo / ReplaceSets. After every step of an uneven
// mutation history, every index reader must agree with a fresh
// FromArenas copy of the same arenas, whose index is one build from 0.
void ExpectIndexMatchesFreshCopy(const RrCollection& grown, NodeId n,
                                 const char* step) {
  SCOPED_TRACE(step);
  const auto members = grown.MembersArena();
  const auto offsets = grown.OffsetsArena();
  RrCollection fresh(n);
  ASSERT_TRUE(RrCollection::FromArenas(
      n, std::vector<NodeId>(members.begin(), members.end()),
      std::vector<uint64_t>(offsets.begin(), offsets.end()), &fresh));
  double grown_fraction = -1;
  double fresh_fraction = -2;
  EXPECT_EQ(grown.GreedyMaxCover(10, &grown_fraction),
            fresh.GreedyMaxCover(10, &fresh_fraction));
  EXPECT_EQ(grown_fraction, fresh_fraction);
  for (const size_t limit : {size_t{0}, size_t{1}, size_t{4095},
                             size_t{4096}, grown.size()}) {
    grown_fraction = -1;
    fresh_fraction = -2;
    EXPECT_EQ(grown.GreedyMaxCoverPrefix(10, limit, &grown_fraction),
              fresh.GreedyMaxCoverPrefix(10, limit, &fresh_fraction))
        << "limit=" << limit;
    EXPECT_EQ(grown_fraction, fresh_fraction) << "limit=" << limit;
  }
  for (NodeId v = 0; v < n; ++v) {
    const NodeId node[] = {v};
    ASSERT_EQ(grown.SetsContainingAny(node), fresh.SetsContainingAny(node))
        << "node " << v;
  }
}

TEST(RrLayoutTest, IncrementalIndexMatchesFreshBuildAfterEveryStep) {
  const Graph g = WcGraph();
  const NodeId n = g.num_nodes();
  // Sets from another stream than the sampler's, for the direct appends.
  RrSampler other(g, DiffusionKind::kIndependentCascade);
  uint64_t other_index = 0;
  std::vector<NodeId> scratch;
  auto append_sets = [&](RrCollection& c, int count) {
    for (int i = 0; i < count; ++i) {
      other.GenerateStream(77, other_index++, scratch);
      c.AppendSet(scratch);
    }
  };
  auto append_batch = [&](RrCollection& c, int count) {
    std::vector<NodeId> members;
    std::vector<uint32_t> sizes;
    for (int i = 0; i < count; ++i) {
      other.GenerateStream(77, other_index++, scratch);
      members.insert(members.end(), scratch.begin(), scratch.end());
      sizes.push_back(static_cast<uint32_t>(scratch.size()));
    }
    c.AppendBatch(members, sizes);
  };

  SamplerOptions options;
  RrSampler sampler(g, options);
  RrCollection c(n);
  ExpectIndexMatchesFreshCopy(c, n, "empty");
  append_sets(c, 37);
  ExpectIndexMatchesFreshCopy(c, n, "AppendSet x37");
  ExpectIndexMatchesFreshCopy(c, n, "no change");
  sampler.Generate(5, 1000, c, nullptr);
  ExpectIndexMatchesFreshCopy(c, n, "Generate 1000");
  c.AppendSet({});
  ExpectIndexMatchesFreshCopy(c, n, "empty set");
  append_batch(c, 513);
  ExpectIndexMatchesFreshCopy(c, n, "AppendBatch 513");
  c.TruncateTo(900);
  ExpectIndexMatchesFreshCopy(c, n, "TruncateTo 900");
  sampler.Generate(5, 3500, c, nullptr);
  ExpectIndexMatchesFreshCopy(c, n, "Generate 3500, past 4096 sets");
  std::vector<uint32_t> ids;
  std::vector<NodeId> members;
  std::vector<uint32_t> sizes;
  for (uint32_t id = 3; id < c.size(); id += 97) {
    ids.push_back(id);
    other.GenerateStream(77, other_index++, scratch);
    members.insert(members.end(), scratch.begin(), scratch.end());
    sizes.push_back(static_cast<uint32_t>(scratch.size()));
  }
  c.ReplaceSets(ids, members, sizes);
  ExpectIndexMatchesFreshCopy(c, n, "ReplaceSets");
  append_sets(c, 1);
  ExpectIndexMatchesFreshCopy(c, n, "AppendSet x1");
  append_batch(c, 3000);
  ExpectIndexMatchesFreshCopy(c, n, "AppendBatch 3000");
  c.TruncateTo(c.size() - 1);
  ExpectIndexMatchesFreshCopy(c, n, "TruncateTo size - 1");
  sampler.Generate(5, 2, c, nullptr);
  ExpectIndexMatchesFreshCopy(c, n, "Generate 2");
}

TEST(RrLayoutTest, IndexGrowsToExactEntryCount) {
  // Each extension sizes the index to exactly one slot per entry, so a
  // corpus grown in uneven steps holds no idle index capacity (the Fig. 8
  // metric). The arenas are reserved exactly up front, which pins every
  // other term of MemoryBytes().
  const Graph g = WcGraph();
  const NodeId n = g.num_nodes();
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  std::vector<std::vector<NodeId>> sets(3000);
  uint64_t entries = 0;
  for (size_t i = 0; i < sets.size(); ++i) {
    sampler.GenerateStream(21, i, sets[i]);
    entries += sets[i].size();
  }
  RrCollection c(n);
  c.Reserve(sets.size(), entries);
  size_t next = 0;
  for (const size_t step : {1, 2, 7, 300, 5, 1100, 1585}) {
    for (size_t i = 0; i < step; ++i) c.AppendSet(sets[next++]);
    c.SetsContainingAny({});  // extends the index
    EXPECT_EQ(c.MemoryBytes(),
              entries * sizeof(NodeId) + (sets.size() + 1) * sizeof(uint64_t) +
                  (uint64_t{n} + 1) * sizeof(uint64_t) +
                  c.TotalEntries() * sizeof(uint32_t) + sizeof(RrCollection))
        << "after " << c.size() << " sets";
  }
  ASSERT_EQ(next, sets.size());
}

TEST(RrLayoutTest, ReserveDoesNotChangeObservableState) {
  const Graph g = testutil::TwoStars(0.5);
  RrCollection plain(g.num_nodes());
  RrCollection reserved(g.num_nodes());
  reserved.Reserve(500, 2000);
  FillFromSampler(g, 5, 200, plain);
  FillFromSampler(g, 5, 200, reserved);
  ASSERT_EQ(plain.size(), reserved.size());
  EXPECT_EQ(plain.TotalEntries(), reserved.TotalEntries());
  EXPECT_EQ(plain.GreedyMaxCover(2), reserved.GreedyMaxCover(2));
  // The reservation is visible where it should be: the footprint.
  EXPECT_GE(reserved.MemoryBytes(), 2000 * sizeof(NodeId));
}

}  // namespace
}  // namespace imbench
