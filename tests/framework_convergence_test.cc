// Deterministic tests of the generalized IM module's convergence logic
// (Alg. 3, lines 10-12) using a scripted fake technique, so the behavior
// under a quality drop is pinned down without Monte-Carlo noise.
#include <memory>

#include <gtest/gtest.h>

#include "framework/im_framework.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

// Selects good seeds (the two star hubs first) while `parameter` is at
// least `threshold`, and deliberately bad seeds (leaves) below it. On the
// TwoStars graph with p=1 this produces a sharp, deterministic spread drop
// at a known point of the spectrum.
class ThresholdedFake : public ImAlgorithm {
 public:
  ThresholdedFake(double parameter, double threshold)
      : parameter_(parameter), threshold_(threshold) {}

  std::string name() const override { return "Fake"; }
  bool Supports(DiffusionKind) const override { return true; }

  SelectionResult Select(const SelectionInput& input) override {
    SelectionResult result;
    const std::vector<NodeId> good = {0, 4, 1, 5, 2, 6, 3};
    const std::vector<NodeId> bad = {1, 2, 3, 5, 6, 0, 4};
    const auto& order = parameter_ >= threshold_ ? good : bad;
    result.seeds.assign(order.begin(), order.begin() + input.k);
    return result;
  }

 private:
  double parameter_;
  double threshold_;
};

// Selects the good seeds at every parameter, but below `threshold` its
// run reports a tripped deadline, as a technique that ran out of budget
// does.
class DeadlineFake : public ImAlgorithm {
 public:
  DeadlineFake(double parameter, double threshold)
      : parameter_(parameter), threshold_(threshold) {}

  std::string name() const override { return "DeadlineFake"; }
  bool Supports(DiffusionKind) const override { return true; }

  SelectionResult Select(const SelectionInput& input) override {
    SelectionResult result;
    const std::vector<NodeId> good = {0, 4, 1, 5, 2, 6, 3};
    result.seeds.assign(good.begin(), good.begin() + input.k);
    if (parameter_ < threshold_) result.stop_reason = StopReason::kDeadline;
    return result;
  }

 private:
  double parameter_;
  double threshold_;
};

template <typename Fake>
AlgorithmSpec FakeSpec(double threshold) {
  AlgorithmSpec spec;
  spec.name = "Fake";
  spec.supports_ic = spec.supports_lt = true;
  spec.parameter_name = "quality";
  spec.parameter_spectrum = {100, 80, 60, 40, 20};
  spec.make = [threshold](double parameter) {
    return std::make_unique<Fake>(parameter, threshold);
  };
  return spec;
}

AlgorithmSpec FakeSpec(double threshold) {
  return FakeSpec<ThresholdedFake>(threshold);
}

CellOptions Options() {
  CellOptions options;
  options.evaluation_simulations = 200;
  options.seed = 3;
  return options;
}

TEST(FrameworkConvergenceTest, StopsAtLastGoodParameter) {
  Graph g = testutil::TwoStars(1.0);
  // Quality collapses below 60: the framework must walk 100 -> 80 -> 60,
  // observe the drop at 40, and return 60.
  const AlgorithmSpec spec = FakeSpec(60);
  const FrameworkResult result = RunImFramework(
      spec, g, DiffusionKind::kIndependentCascade, 2, Options());
  EXPECT_DOUBLE_EQ(result.chosen.parameter, 60);
  // Trials: 100, 80, 60, 40 (the failing probe) — and no more.
  ASSERT_EQ(result.trials.size(), 4u);
  EXPECT_DOUBLE_EQ(result.trials.back().parameter, 40);
  EXPECT_EQ(result.chosen.cell.seeds[0], 0u);
  EXPECT_EQ(result.chosen.cell.seeds[1], 4u);
}

TEST(FrameworkConvergenceTest, WalksWholeSpectrumWhenQualityIsFlat) {
  Graph g = testutil::TwoStars(1.0);
  const AlgorithmSpec spec = FakeSpec(0);  // never degrades
  const FrameworkResult result = RunImFramework(
      spec, g, DiffusionKind::kIndependentCascade, 2, Options());
  EXPECT_DOUBLE_EQ(result.chosen.parameter, 20);  // cheapest setting wins
  EXPECT_EQ(result.trials.size(), spec.parameter_spectrum.size());
}

TEST(FrameworkConvergenceTest, DegenerateAtFirstParameterKeepsAnchor) {
  Graph g = testutil::TwoStars(1.0);
  const AlgorithmSpec spec = FakeSpec(1000);  // every setting is "bad"
  const FrameworkResult result = RunImFramework(
      spec, g, DiffusionKind::kIndependentCascade, 2, Options());
  // All trials produce the same bad seeds, so quality is flat and the
  // framework legitimately relaxes to the cheapest value.
  EXPECT_DOUBLE_EQ(result.chosen.parameter, 20);
}

TEST(FrameworkConvergenceTest, UnfinishedTrialEndsTheWalk) {
  Graph g = testutil::TwoStars(1.0);
  // Quality never drops, but runs below 60 report a tripped deadline: the
  // walk stops at 40, the first unfinished trial, and returns 60, the last
  // finished one.
  const AlgorithmSpec spec = FakeSpec<DeadlineFake>(60);
  const FrameworkResult result = RunImFramework(
      spec, g, DiffusionKind::kIndependentCascade, 2, Options());
  EXPECT_DOUBLE_EQ(result.chosen.parameter, 60);
  EXPECT_TRUE(result.chosen.cell.ok());
  ASSERT_EQ(result.trials.size(), 4u);
  EXPECT_DOUBLE_EQ(result.trials.back().parameter, 40);
  EXPECT_EQ(result.trials.back().cell.status, CellResult::Status::kDnf);
  EXPECT_EQ(result.trials.back().cell.stop_reason, StopReason::kDeadline);
}

TEST(FrameworkConvergenceTest, UnfinishedAnchorIsReturned) {
  Graph g = testutil::TwoStars(1.0);
  // Every run reports a tripped deadline: there is no finished anchor to
  // compare against, so the walk ends at the anchor, which is returned.
  const AlgorithmSpec spec = FakeSpec<DeadlineFake>(1000);
  const FrameworkResult result = RunImFramework(
      spec, g, DiffusionKind::kIndependentCascade, 2, Options());
  ASSERT_EQ(result.trials.size(), 1u);
  EXPECT_DOUBLE_EQ(result.chosen.parameter, 100);
  EXPECT_EQ(result.chosen.cell.status, CellResult::Status::kDnf);
  EXPECT_EQ(result.chosen.cell.seeds.size(), 2u);
}

}  // namespace
}  // namespace imbench
