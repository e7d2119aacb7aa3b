// Differential coverage for the flat-arena RR corpus: the CSR layout must
// be observationally identical to the vector-of-vectors baseline it
// replaced (bench/legacy_rr_corpus.h) — same sets for the same seeds, same
// greedy max-cover seeds and covered fractions (which pins the degree-bucket
// cover to the legacy lazy heap's tie-breaking at every corpus size), and
// the same TruncateTo semantics across parallel batch boundaries — and the
// in-place edits (ReplaceSets, TruncateTo) must leave the arenas and the
// inverted index exactly as a fresh build of the edited sets would.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>
#include "bench/legacy_rr_corpus.h"
#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/memory.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

// Page-rounded byte count: the length of an arena mapping.
uint64_t Pages(uint64_t bytes) {
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

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

// The prefix limits ExpectIndexMatchesFreshCopy covers, in order. Below a
// corpus of a few hundred sets they are more distinct limits than the
// prefix-degree cache has slots. The first two are the last two asked, so
// on an unchanged size they hit the slots the previous check left (patched
// by any ReplaceSets since); the rest miss and evict.
std::vector<size_t> CoverLimits(size_t size) {
  const size_t last = size == 0 ? 0 : size - 1;
  return {size / 2, 250, 0, 1, 4095, 4096, last, size / 2, 250, size};
}

// The inverted index is extended in place over each appended tail and
// edited in place by TruncateTo / ReplaceSets, and so are the cached prefix
// degrees. After every step of an uneven mutation history, every index
// reader must agree with a fresh FromArenas copy of the same arenas, whose
// index is one build from 0 and whose prefix degrees are filled anew.
void ExpectIndexMatchesFreshCopy(const RrCollection& grown, NodeId n,
                                 const char* step) {
  SCOPED_TRACE(step);
  const auto members = grown.MembersArena();
  const auto offsets = grown.OffsetsArena();
  MappedArena<NodeId> members_copy;
  members_copy.append(members);
  MappedArena<uint64_t> offsets_copy;
  offsets_copy.append(offsets);
  RrCollection fresh(n);
  ASSERT_TRUE(RrCollection::FromArenas(n, std::move(members_copy),
                                       std::move(offsets_copy), &fresh));
  double grown_fraction = -1;
  double fresh_fraction = -2;
  EXPECT_EQ(grown.GreedyMaxCover(10, &grown_fraction),
            fresh.GreedyMaxCover(10, &fresh_fraction));
  EXPECT_EQ(grown_fraction, fresh_fraction);
  for (const size_t limit : CoverLimits(grown.size())) {
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

// Drives ReplaceSets on a collection whose forward arenas were reserved
// exactly up front, keeping the expected per-set contents alongside. After
// each step the arenas must be byte-equal to a collection appended from the
// expected sets, MemoryBytes() must be the exact mapping lengths (every
// growth of a reserved arena, and of the index, is exact and page-rounded,
// and no mapping ever shrinks), and Oracle() compares the index with a
// fresh build.
class SpliceHarness {
 public:
  SpliceHarness(NodeId n, std::vector<std::vector<NodeId>> sets,
                size_t reserve_sets, uint64_t reserve_entries)
      : n_(n),
        sets_(std::move(sets)),
        c_(n),
        members_mapped_(Pages(reserve_entries * sizeof(NodeId))),
        offsets_mapped_(Pages((reserve_sets + 1) * sizeof(uint64_t))) {
    c_.Reserve(reserve_sets, reserve_entries);
    for (const auto& set : sets_) c_.AppendSet(set);
  }

  RrCollection& corpus() { return c_; }
  const std::vector<NodeId>& set(size_t i) const { return sets_[i]; }
  size_t size() const { return sets_.size(); }

  void Append(const std::vector<NodeId>& set) {
    c_.AppendSet(set);
    sets_.push_back(set);
    Check("append");
  }

  void Replace(const std::vector<uint32_t>& ids,
               const std::vector<std::vector<NodeId>>& new_sets,
               const char* step) {
    ASSERT_EQ(ids.size(), new_sets.size());
    std::vector<NodeId> members;
    std::vector<uint32_t> sizes;
    for (size_t i = 0; i < ids.size(); ++i) {
      members.insert(members.end(), new_sets[i].begin(), new_sets[i].end());
      sizes.push_back(static_cast<uint32_t>(new_sets[i].size()));
      sets_[ids[i]] = new_sets[i];
    }
    c_.ReplaceSets(ids, members, sizes);
    if (index_built_) {
      // The patched index covers exactly the sets it covered before.
      uint64_t indexed_entries = 0;
      for (size_t i = 0; i < indexed_; ++i) {
        indexed_entries += sets_[i].size();
      }
      index_mapped_ = std::max(index_mapped_,
                               Pages(indexed_entries * sizeof(uint32_t)));
    }
    Check(step);
  }

  // Builds or extends the index and compares every reader with a fresh
  // build.
  void Oracle(const char* step) {
    ExpectIndexMatchesFreshCopy(c_, n_, step);
    for (const size_t limit : CoverLimits(sets_.size())) {
      if (limit < sets_.size()) prefix_limits_.insert(limit);
    }
    index_built_ = true;
    indexed_ = sets_.size();
    index_mapped_ = std::max(index_mapped_,
                             Pages(c_.TotalEntries() * sizeof(uint32_t)));
    Check(step);
  }

 private:
  void Check(const char* step) {
    SCOPED_TRACE(step);
    RrCollection rebuilt(n_);
    for (const auto& set : sets_) rebuilt.AppendSet(set);
    const auto members = c_.MembersArena();
    const auto offsets = c_.OffsetsArena();
    const auto want_members = rebuilt.MembersArena();
    const auto want_offsets = rebuilt.OffsetsArena();
    ASSERT_EQ(std::vector<NodeId>(members.begin(), members.end()),
              std::vector<NodeId>(want_members.begin(), want_members.end()));
    ASSERT_EQ(std::vector<uint64_t>(offsets.begin(), offsets.end()),
              std::vector<uint64_t>(want_offsets.begin(), want_offsets.end()));
    members_mapped_ = std::max(members_mapped_,
                               Pages(c_.TotalEntries() * sizeof(NodeId)));
    const uint64_t index_offsets =
        index_built_ ? (uint64_t{n_} + 1) * sizeof(uint64_t) : 0;
    // No step truncates, so every slot a prefix cover filled stays filled.
    const uint64_t prefix_degrees =
        std::min(prefix_limits_.size(), RrCollection::kPrefixDegreeSlots) *
        uint64_t{n_} * sizeof(uint32_t);
    EXPECT_EQ(c_.MemoryBytes(), members_mapped_ + offsets_mapped_ +
                                    index_offsets + index_mapped_ +
                                    prefix_degrees + sizeof(RrCollection));
  }

  NodeId n_;
  std::vector<std::vector<NodeId>> sets_;
  RrCollection c_;
  uint64_t members_mapped_;
  uint64_t offsets_mapped_;
  bool index_built_ = false;
  size_t indexed_ = 0;
  uint64_t index_mapped_ = 0;
  std::set<size_t> prefix_limits_;  // distinct limits below size covered
};

// `count` sets of stream `seed`, from index `first` on.
std::vector<std::vector<NodeId>> StreamSets(const Graph& g, uint64_t seed,
                                            uint64_t first, size_t count) {
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  std::vector<std::vector<NodeId>> sets(count);
  for (size_t i = 0; i < count; ++i) {
    sampler.GenerateStream(seed, first + i, sets[i]);
  }
  return sets;
}

uint64_t EntriesOf(const std::vector<std::vector<NodeId>>& sets) {
  uint64_t entries = 0;
  for (const auto& set : sets) entries += set.size();
  return entries;
}

// `set` plus `extra` nodes it does not hold, taken in a stride through
// the node ids so they land in many slices.
std::vector<NodeId> Grown(std::vector<NodeId> set, NodeId n, uint32_t extra,
                          NodeId start) {
  for (NodeId v = start % n; extra > 0; v = (v + 37) % n) {
    if (std::find(set.begin(), set.end(), v) == set.end()) {
      set.push_back(v);
      --extra;
    }
  }
  return set;
}

TEST(RrLayoutTest, ReplaceSetsSplicesEveryShapeInPlace) {
  const Graph g = WcGraph();
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> base = StreamSets(g, 21, 0, 600);
  // Room for the growing steps below, so the forward arenas never grow
  // past the reservation by the geometric rule.
  SpliceHarness h(n, base, base.size(), EntriesOf(base) + 4096);
  h.Oracle("base");
  uint64_t other = 0;  // cursor into the replacement stream
  auto others = [&](size_t count) {
    auto sets = StreamSets(g, 77, other, count);
    other += count;
    return sets;
  };
  const uint32_t last = static_cast<uint32_t>(h.size() - 1);

  h.Replace({0}, others(1), "set 0");
  h.Oracle("set 0");
  h.Replace({last}, others(1), "last set");
  h.Oracle("last set");
  h.Replace({0, last}, {Grown(h.set(0), n, 3, 11), {}}, "first and last");
  h.Oracle("first and last");
  h.Replace({5}, {{}}, "set -> empty");
  h.Oracle("set -> empty");
  h.Replace({5}, others(1), "empty -> set");
  h.Oracle("empty -> set");

  std::vector<uint32_t> ids;
  std::vector<std::vector<NodeId>> sets;
  for (uint32_t id = 2; id < h.size(); id += 7) {
    ids.push_back(id);
    sets.push_back(Grown(h.set(id), n, 1 + id % 3, id));
  }
  h.Replace(ids, sets, "all growing");
  h.Oracle("all growing");
  // The same sets, each losing a member other than its root (every one
  // holds at least two after growing).
  for (size_t i = 0; i < ids.size(); ++i) {
    sets[i] = h.set(ids[i]);
    sets[i].erase(sets[i].begin() + 1 + ids[i] % (sets[i].size() - 1));
  }
  h.Replace(ids, sets, "all shrinking");
  h.Oracle("all shrinking");

  // Mixed: grown, shrunk to empty, unchanged, and fresh sets of any size,
  // including adjacent ids.
  ids.clear();
  sets.clear();
  for (uint32_t id = 1; id < h.size(); id += 3 + id % 4) {
    ids.push_back(id);
    switch (id % 4) {
      case 0:
        sets.push_back(Grown(h.set(id), n, 5, id * 7));
        break;
      case 1:
        sets.push_back({});
        break;
      case 2:
        sets.push_back(h.set(id));
        break;
      default:
        sets.push_back(others(1)[0]);
    }
    if (id + 1 < h.size()) {
      ids.push_back(++id);
      sets.push_back(others(1)[0]);
    }
  }
  h.Replace(ids, sets, "mixed");
  h.Oracle("mixed");

  ids.resize(h.size());
  std::iota(ids.begin(), ids.end(), 0u);
  h.Replace(ids, others(h.size()), "every set");
  h.Oracle("every set");
  h.Replace(ids, base, "every set back");
  h.Oracle("every set back");
}

TEST(RrLayoutTest, ReplaceSetsBeforeAnyIndexExists) {
  const Graph g = WcGraph();
  const NodeId n = g.num_nodes();
  const std::vector<std::vector<NodeId>> base = StreamSets(g, 21, 0, 500);
  SpliceHarness h(n, base, base.size(), EntriesOf(base));
  // Growing past the exact reservation: the members arena grows exactly.
  h.Replace({0, 3, 4, 250, 499},
            {Grown(h.set(0), n, 4, 1), {}, Grown(h.set(4), n, 9, 2),
             Grown(h.set(250), n, 2, 3), Grown(h.set(499), n, 6, 4)},
            "no index, growing");
  h.Replace({1, 2, 3}, StreamSets(g, 77, 0, 3), "no index, mixed");
  h.Oracle("index built after the splices");
}

TEST(RrLayoutTest, ReplaceSetsLeavesUnindexedTailToTheExtension) {
  const Graph g = WcGraph();
  const NodeId n = g.num_nodes();
  const std::vector<std::vector<NodeId>> base = StreamSets(g, 21, 0, 400);
  const std::vector<std::vector<NodeId>> tail = StreamSets(g, 21, 400, 200);
  SpliceHarness h(n, base, base.size() + tail.size() + 3,
                  EntriesOf(base) + EntriesOf(tail) + 1024);
  h.Oracle("indexed prefix");
  for (const auto& set : tail) h.Append(set);
  // Ids on both sides of the indexed prefix: only those below it are
  // patched, and the extension reads the rest.
  h.Replace({7, 398, 399, 400, 401, 555, 599},
            {Grown(h.set(7), n, 2, 5), {}, Grown(h.set(399), n, 4, 6), {},
             Grown(h.set(401), n, 3, 7), StreamSets(g, 77, 0, 1)[0],
             Grown(h.set(599), n, 1, 8)},
            "both sides of the indexed prefix");
  h.Oracle("extension after the splice");
  for (int i = 0; i < 3; ++i) h.Append(StreamSets(g, 77, 10 + i, 1)[0]);
  const uint32_t first_tail = static_cast<uint32_t>(h.size() - 3);
  h.Replace({first_tail, first_tail + 2},
            {Grown(h.set(first_tail), n, 2, 9), {}}, "tail only");
  h.Oracle("extension after a tail-only splice");
}

TEST(RrLayoutTest, ReplaceSetsMapsNoSecondCopy) {
  // The peak heap across a repair rises by at most the net growth of the
  // three mappings plus ReplaceSets' own edit lists (per replaced entry an
  // index edit, a moved run and an insertion slot, and sort scratch; per
  // replaced set a forward run), never by a second copy of any arena.
  const Graph g = WcGraph();
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  RrCollection c(g.num_nodes());
  ASSERT_EQ(sampler.Generate(5, 200000, c, nullptr).generated, 200000u);
  c.SetsContainingAny({});  // builds the index over every set
  std::vector<uint32_t> ids;
  std::vector<NodeId> members;
  std::vector<uint32_t> sizes;
  uint64_t replaced_entries = 0;
  for (uint32_t id = 13; id < c.size(); id += 4999) {
    ids.push_back(id);
    const auto old_set = c.Set(id);
    const std::vector<NodeId> grown =
        Grown(std::vector<NodeId>(old_set.begin(), old_set.end()),
              g.num_nodes(), 24 + id % 4, id);
    members.insert(members.end(), grown.begin(), grown.end());
    sizes.push_back(static_cast<uint32_t>(grown.size()));
    replaced_entries += old_set.size() + grown.size();
  }
  // 64 bytes covers every edit-list record of one entry (a 12-byte edit, a
  // 24-byte run, a 16-byte insertion, 8 bytes of sort scratch); twice that
  // for vector growth, plus allocator rounding of the few blocks.
  const uint64_t edit_lists =
      2 * 64 * (replaced_entries + ids.size() + 1) + 1024;
  // A second copy of the forward arenas would not fit under the bound.
  ASSERT_GT(c.TotalEntries() * sizeof(NodeId), 8 * edit_lists);

  const uint64_t bytes_before = c.MemoryBytes();
  const uint64_t heap_before = CurrentHeapBytes();
  ResetPeakHeapBytes();
  c.ReplaceSets(ids, members, sizes);
  const uint64_t peak_rise = PeakHeapBytes() - heap_before;
  const uint64_t kept = CurrentHeapBytes() - heap_before;
  const uint64_t arena_growth = c.MemoryBytes() - bytes_before;
  // The batch adds more than a page of entries, so the exactly sized index
  // must grow.
  EXPECT_GT(arena_growth, 0u);
  EXPECT_LE(peak_rise, arena_growth + edit_lists);
  EXPECT_EQ(kept, arena_growth);
  ExpectIndexMatchesFreshCopy(c, g.num_nodes(), "after the repair");
}

TEST(RrLayoutTest, IndexGrowsToExactEntryCount) {
  // Each extension maps the index to exactly one slot per entry, page-
  // rounded, so a corpus grown in uneven steps holds no idle index capacity
  // beyond the last page (the Fig. 8 metric). The forward arenas are
  // reserved exactly up front, which pins every other term of
  // MemoryBytes(): mapping lengths, the per-node index offsets and the
  // object header.
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
              Pages(entries * sizeof(NodeId)) +
                  Pages((sets.size() + 1) * sizeof(uint64_t)) +
                  (uint64_t{n} + 1) * sizeof(uint64_t) +
                  Pages(c.TotalEntries() * sizeof(uint32_t)) +
                  sizeof(RrCollection))
        << "after " << c.size() << " sets";
  }
  ASSERT_EQ(next, sets.size());
}

TEST(RrLayoutTest, PrefixDegreeSlotsAreCountedExactly) {
  // Each prefix limit below size() a cover asks for fills one slot of n
  // degrees, up to kPrefixDegreeSlots; an evicting miss reuses a slot, a
  // full cover fills none, and TruncateTo frees the slots over a longer
  // prefix. MemoryBytes() tracks every step exactly, and it is what the
  // corpus holds on the heap.
  const Graph g = WcGraph();
  const NodeId n = g.num_nodes();
  RrCollection c(n);
  FillFromSampler(g, 21, 600, c);
  c.GreedyMaxCover(5);  // builds the index; a full cover fills no slot
  const uint64_t base = c.MemoryBytes();
  const uint64_t slot = uint64_t{n} * sizeof(uint32_t);
  size_t filled = 0;
  for (const size_t limit : {100, 200, 300, 400, 500, 100, 600}) {
    const uint64_t heap_before = CurrentHeapBytes();
    const uint64_t bytes_before = c.MemoryBytes();
    c.GreedyMaxCoverPrefix(5, limit);
    if (limit < c.size()) {
      filled = std::min(filled + 1, RrCollection::kPrefixDegreeSlots);
    }
    EXPECT_EQ(c.MemoryBytes(), base + filled * slot) << "limit " << limit;
    EXPECT_EQ(CurrentHeapBytes() - heap_before,
              c.MemoryBytes() - bytes_before)
        << "limit " << limit;
  }
  ASSERT_EQ(filled, RrCollection::kPrefixDegreeSlots);
  // Cached now: 100, 500, 400, 300. Truncating to 400 keeps the limits up
  // to 400 (their prefixes are intact) and frees the one over 500; the
  // arenas keep their mappings.
  c.TruncateTo(400);
  EXPECT_EQ(c.MemoryBytes(), base + 3 * slot);
  // The kept slots still agree with a fresh build.
  ExpectIndexMatchesFreshCopy(c, n, "after TruncateTo");
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
