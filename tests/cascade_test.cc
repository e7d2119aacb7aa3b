#include "diffusion/cascade.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

TEST(CascadeTest, IcFullProbabilityReachesEverything) {
  Graph g = testutil::PathGraph(10, 1.0);
  CascadeContext ctx(10);
  Rng rng(1);
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng),
            10u);
}

TEST(CascadeTest, IcZeroProbabilityOnlySeeds) {
  Graph g = testutil::PathGraph(10, 0.0);
  CascadeContext ctx(10);
  Rng rng(2);
  const std::vector<NodeId> seeds = {0, 5};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng),
            2u);
}

TEST(CascadeTest, DuplicateSeedsCountedOnce) {
  Graph g = testutil::PathGraph(5, 0.0);
  CascadeContext ctx(5);
  Rng rng(3);
  const std::vector<NodeId> seeds = {2, 2, 2};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng),
            1u);
}

TEST(CascadeTest, ActiveSetMatchesReturnedCount) {
  Graph g = testutil::HubGraph();
  CascadeContext ctx(g.num_nodes());
  Rng rng(4);
  const std::vector<NodeId> seeds = {0};
  const NodeId count =
      ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng);
  EXPECT_EQ(ctx.active().size(), count);
  EXPECT_EQ(ctx.active()[0], 0u);  // seeds first
}

TEST(CascadeTest, EpochReuseDoesNotLeakStateAcrossSimulations) {
  Graph g = testutil::PathGraph(6, 1.0);
  CascadeContext ctx(6);
  Rng rng(5);
  const std::vector<NodeId> all = {0};
  const std::vector<NodeId> tail = {5};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, all, rng), 6u);
  // A fresh simulation from the tail must not see the previous activation.
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, tail, rng),
            1u);
}

TEST(CascadeTest, LtFullWeightChainActivates) {
  // LT with in-weight 1.0: threshold <= 1 always, so every hop fires.
  Graph g = testutil::PathGraph(8, 1.0);
  CascadeContext ctx(8);
  Rng rng(8);
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kLinearThreshold, seeds, rng), 8u);
}

TEST(CascadeTest, LtRespectsThresholdAccumulation) {
  // Node 2 has two in-edges of 0.5 each; a single active parent activates
  // it only when θ <= 0.5 (half the time), both parents always do.
  Graph g = Graph::FromArcs(3, {{0, 2}, {1, 2}});
  g.SetWeights(std::vector<double>{0.5, 0.5});
  CascadeContext ctx(3);

  int activated_single = 0;
  const std::vector<NodeId> one_parent = {0};
  for (int i = 0; i < 4000; ++i) {
    Rng rng = Rng::ForStream(9, i);
    activated_single +=
        ctx.Simulate(g, DiffusionKind::kLinearThreshold, one_parent, rng) == 2;
  }
  EXPECT_NEAR(activated_single / 4000.0, 0.5, 0.05);

  const std::vector<NodeId> both_parents = {0, 1};
  for (int i = 0; i < 100; ++i) {
    Rng rng = Rng::ForStream(10, i);
    EXPECT_EQ(
        ctx.Simulate(g, DiffusionKind::kLinearThreshold, both_parents, rng),
        3u);
  }
}

TEST(CascadeTest, IcActivationRateMatchesEdgeProbability) {
  Graph g = testutil::PathGraph(2, 0.3);
  CascadeContext ctx(2);
  int activations = 0;
  const std::vector<NodeId> seeds = {0};
  for (int i = 0; i < 10000; ++i) {
    Rng rng = Rng::ForStream(11, i);
    activations +=
        ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng) == 2;
  }
  EXPECT_NEAR(activations / 10000.0, 0.3, 0.02);
}

TEST(CascadeContinueTest, ContinueAddsNewSeedRegion) {
  Graph g = testutil::TwoStars(1.0);
  CascadeContext ctx(g.num_nodes());
  Rng rng(12);
  const std::vector<NodeId> first = {0};
  const std::vector<NodeId> second = {4};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, first, rng),
            4u);
  // Continuing from the other hub activates its star on top.
  EXPECT_EQ(ctx.Continue(g, DiffusionKind::kIndependentCascade, second, rng),
            7u);
}

TEST(CascadeContinueTest, ContinueFromAlreadyActiveNodeIsNoOp) {
  Graph g = testutil::PathGraph(5, 1.0);
  CascadeContext ctx(g.num_nodes());
  Rng rng(13);
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(ctx.Simulate(g, DiffusionKind::kIndependentCascade, seeds, rng),
            5u);
  const std::vector<NodeId> again = {2};
  EXPECT_EQ(ctx.Continue(g, DiffusionKind::kIndependentCascade, again, rng),
            5u);
}

TEST(CascadeContinueTest, UnionDistributionMatchesJointSeeding) {
  // E[Γ(S ∪ T)] via Simulate(S) + Continue(T) must match Simulate(S ∪ T):
  // the deferred-decision principle behind CELF++'s shared batch.
  Graph g = testutil::HubGraph(0.5, 0.3);
  CascadeContext ctx(g.num_nodes());
  const std::vector<NodeId> s = {0};
  const std::vector<NodeId> t = {6};
  const std::vector<NodeId> both = {0, 6};
  double sum_continue = 0, sum_joint = 0;
  const int runs = 20000;
  for (int i = 0; i < runs; ++i) {
    Rng rng = Rng::ForStream(31, i);
    ctx.Simulate(g, DiffusionKind::kIndependentCascade, s, rng);
    sum_continue +=
        ctx.Continue(g, DiffusionKind::kIndependentCascade, t, rng);
    Rng rng2 = Rng::ForStream(37, i);
    sum_joint +=
        ctx.Simulate(g, DiffusionKind::kIndependentCascade, both, rng2);
  }
  EXPECT_NEAR(sum_continue / runs, sum_joint / runs, 0.05);
}

TEST(CascadeContinueTest, LtAccumulatorPersistsAcrossContinue) {
  // Node 2 needs both parents under LT when θ in (0.5, 1]; seeding parent
  // 0, then continuing from parent 1, must activate it exactly as often as
  // seeding both at once (always, given each edge carries 0.5).
  Graph g = Graph::FromArcs(3, {{0, 2}, {1, 2}});
  g.SetWeights(std::vector<double>{0.5, 0.5});
  CascadeContext ctx(3);
  const std::vector<NodeId> first = {0};
  const std::vector<NodeId> second = {1};
  for (int i = 0; i < 200; ++i) {
    Rng rng = Rng::ForStream(41, i);
    ctx.Simulate(g, DiffusionKind::kLinearThreshold, first, rng);
    EXPECT_EQ(ctx.Continue(g, DiffusionKind::kLinearThreshold, second, rng),
              3u);
  }
}

TEST(CascadeTest, KindNames) {
  EXPECT_STREQ(DiffusionKindName(DiffusionKind::kIndependentCascade), "IC");
  EXPECT_STREQ(DiffusionKindName(DiffusionKind::kLinearThreshold), "LT");
}

}  // namespace
}  // namespace imbench
