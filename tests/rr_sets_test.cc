#include "diffusion/rr_sets.h"

#include <unistd.h>

#include <algorithm>
#include <set>

#include <gtest/gtest.h>
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

TEST(RrSamplerTest, IcFullProbabilityYieldsAllAncestors) {
  // Chain 0 -> 1 -> 2 -> 3 with p = 1: RR(3) = {3, 2, 1, 0}.
  Graph g = testutil::PathGraph(4, 1.0);
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  Rng rng(1);
  std::vector<NodeId> set;
  sampler.GenerateFromRoot(3, rng, set);
  std::sort(set.begin(), set.end());
  EXPECT_EQ(set, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(RrSamplerTest, IcZeroProbabilityYieldsRootOnly) {
  Graph g = testutil::PathGraph(4, 0.0);
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  Rng rng(2);
  std::vector<NodeId> set;
  sampler.GenerateFromRoot(3, rng, set);
  EXPECT_EQ(set, (std::vector<NodeId>{3}));
}

TEST(RrSamplerTest, WidthCountsExaminedInEdges) {
  Graph g = testutil::PathGraph(4, 1.0);
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  Rng rng(3);
  std::vector<NodeId> set;
  // Nodes 3,2,1,0 are visited; each of 3,2,1 has one in-edge, 0 has none.
  EXPECT_EQ(sampler.GenerateFromRoot(3, rng, set), 3u);
}

TEST(RrSamplerTest, IcMembershipRateMatchesEdgeProbability) {
  Graph g = testutil::PathGraph(2, 0.4);
  RrSampler sampler(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> set;
  int contains_parent = 0;
  for (int i = 0; i < 10000; ++i) {
    Rng rng = Rng::ForStream(4, i);
    sampler.GenerateFromRoot(1, rng, set);
    contains_parent += set.size() == 2;
  }
  EXPECT_NEAR(contains_parent / 10000.0, 0.4, 0.02);
}

TEST(RrSamplerTest, LtSetIsAlwaysAPath) {
  Graph g = testutil::TwoStars(1.0);
  AssignLtUniform(g);
  RrSampler sampler(g, DiffusionKind::kLinearThreshold);
  std::vector<NodeId> set;
  for (int i = 0; i < 200; ++i) {
    sampler.GenerateStream(5, i, set);
    // LT live-edge: at most one in-edge per node, so no duplicates and the
    // set size is bounded by the longest in-path (2 in a star).
    std::set<NodeId> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size());
    EXPECT_LE(set.size(), 2u);
  }
}

TEST(RrSamplerTest, LtSelectionRateProportionalToWeight) {
  // Node 2 with in-edges from 0 (w=0.7) and 1 (w=0.2): RR(2) contains 0
  // w.p. 0.7, contains 1 w.p. 0.2, is {2} alone w.p. 0.1.
  Graph g = Graph::FromArcs(3, {{0, 2}, {1, 2}});
  g.SetWeights(std::vector<double>{0.7, 0.2});
  RrSampler sampler(g, DiffusionKind::kLinearThreshold);
  std::vector<NodeId> set;
  int has0 = 0, has1 = 0, alone = 0;
  for (int i = 0; i < 10000; ++i) {
    Rng rng = Rng::ForStream(6, i);
    sampler.GenerateFromRoot(2, rng, set);
    if (set.size() == 1) ++alone;
    has0 += std::count(set.begin(), set.end(), 0u);
    has1 += std::count(set.begin(), set.end(), 1u);
  }
  EXPECT_NEAR(has0 / 10000.0, 0.7, 0.02);
  EXPECT_NEAR(has1 / 10000.0, 0.2, 0.02);
  EXPECT_NEAR(alone / 10000.0, 0.1, 0.02);
}

TEST(RrCollectionTest, TracksSizesAndMembership) {
  RrCollection collection(5);
  collection.Add({0, 1});
  collection.Add({1, 2, 3});
  EXPECT_EQ(collection.size(), 2u);
  EXPECT_EQ(collection.TotalEntries(), 5u);
  // One page each for the offset and member arenas; no index yet.
  EXPECT_EQ(collection.MemoryBytes(),
            2 * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) +
                sizeof(RrCollection));
  const auto set0 = collection.Set(0);
  EXPECT_EQ(std::vector<NodeId>(set0.begin(), set0.end()),
            (std::vector<NodeId>{0, 1}));
}

TEST(RrCollectionTest, GreedyMaxCoverPicksBestCoverage) {
  // Node 1 covers sets {0,1,2}; nodes 0 and 4 cover one each.
  RrCollection collection(5);
  collection.Add({0, 1});
  collection.Add({1, 2});
  collection.Add({1, 3});
  collection.Add({4});
  double fraction = 0;
  const std::vector<NodeId> seeds = collection.GreedyMaxCover(2, &fraction);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_EQ(seeds[0], 1u);
  EXPECT_EQ(seeds[1], 4u);
  EXPECT_DOUBLE_EQ(fraction, 1.0);
}

TEST(RrCollectionTest, CoverageFractionPartial) {
  RrCollection collection(4);
  collection.Add({0});
  collection.Add({1});
  collection.Add({2});
  collection.Add({3});
  double fraction = 0;
  const std::vector<NodeId> seeds = collection.GreedyMaxCover(2, &fraction);
  EXPECT_EQ(seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(fraction, 0.5);
}

TEST(RrCollectionTest, FillsUpToKWhenEverythingCovered) {
  RrCollection collection(6);
  collection.Add({0});
  double fraction = 0;
  const std::vector<NodeId> seeds = collection.GreedyMaxCover(3, &fraction);
  EXPECT_EQ(seeds.size(), 3u);
  EXPECT_EQ(seeds[0], 0u);
  // Padding seeds are distinct non-chosen nodes.
  std::set<NodeId> unique(seeds.begin(), seeds.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(RrCollectionTest, LazyHeapHandlesInterleavedDegrees) {
  // Regression-style check: overlapping sets force stale bucket entries.
  RrCollection collection(4);
  collection.Add({0, 1});
  collection.Add({0, 1});
  collection.Add({1, 2});
  collection.Add({2, 3});
  collection.Add({3});
  const std::vector<NodeId> seeds = collection.GreedyMaxCover(4);
  // First pick is node 1 (covers 3 sets); remaining picks cover the rest.
  EXPECT_EQ(seeds[0], 1u);
  double fraction = 0;
  collection.GreedyMaxCover(4, &fraction);
  EXPECT_DOUBLE_EQ(fraction, 1.0);
}

}  // namespace
}  // namespace imbench
