// Differential tests against the exact live-edge oracle: both MC spread
// estimators (the CELF family's live-stream scalar cascade and the fused
// kernel behind EstimateSpread) and the RR-set estimator must agree with
// the closed-form σ(S) within sampling noise, and the approximation
// algorithms must return seed sets whose *oracle* spread is within the
// greedy guarantee of the true optimum found by exhaustive search.
#include "tests/oracle_util.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/algorithm.h"
#include "diffusion/rr_sets.h"
#include "diffusion/spread.h"
#include "diffusion/streaming.h"
#include "framework/exact_opt.h"
#include "framework/registry.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

using testutil::ExactSpread;
using testutil::ExactSpreadIc;
using testutil::ExactSpreadLt;

// 6 nodes, 8 distinct edges (with a cycle 3 -> 4 -> 5 -> 3 and a repeated
// arc so LT-P sees a multiplicity > 1). Small enough for the 2^m oracle.
Graph OracleGraph() {
  std::vector<Arc> arcs = {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4},
                           {4, 5}, {5, 3}, {1, 4}, {0, 1}};  // dup (0,1)
  return Graph::FromArcs(6, arcs);
}

// |estimate - exact| within 3 standard errors (plus an absolute epsilon for
// deterministic cases where the sample deviation collapses to zero).
void ExpectWithinThreeSigma(double estimate, double exact, double std_error,
                            const char* label) {
  EXPECT_LE(std::abs(estimate - exact), 3.0 * std_error + 1e-6)
      << label << ": estimate " << estimate << " vs exact " << exact
      << " (3 sigma = " << 3.0 * std_error << ")";
}

TEST(OracleTest, McEstimatorMatchesExactSpreadOnAllWeightModels) {
  // The live-stream scalar cascade every CELF-family selection estimates
  // its marginal gains with (StreamingScratch::Estimate).
  const WeightModel models[] = {WeightModel::kIcConstant,
                                WeightModel::kWc,
                                WeightModel::kTrivalency,
                                WeightModel::kLtUniform,
                                WeightModel::kLtRandom,
                                WeightModel::kLtParallel};
  const std::vector<std::vector<NodeId>> seed_sets = {{0}, {0, 3}, {1, 5}};
  for (const WeightModel model : models) {
    Graph graph = OracleGraph();
    Rng rng(0x0badc0de);
    AssignWeights(graph, model, 0.3, rng);
    const DiffusionKind kind = DiffusionKindFor(model);
    for (const auto& seeds : seed_sets) {
      const double exact = ExactSpread(graph, kind, seeds);
      StreamingScratch scratch(graph.num_nodes(), 99);
      const SpreadEstimate est =
          scratch.Estimate(graph, kind, seeds, 200000, /*guard=*/nullptr,
                           /*trace=*/nullptr);
      ExpectWithinThreeSigma(est.mean, exact, est.StdError(),
                             WeightModelName(model).c_str());
    }
  }
}

TEST(OracleTest, FusedMcEstimatorMatchesExactSpreadOnAllWeightModels) {
  // Same oracle agreement as above, through EstimateSpread's fused kernel.
  // The fused kernels quantize edge probabilities to kCoinBits binary
  // digits (bias <= 2^-17 per edge), far below 3 sigma at 200K samples.
  const WeightModel models[] = {WeightModel::kIcConstant,
                                WeightModel::kWc,
                                WeightModel::kTrivalency,
                                WeightModel::kLtUniform,
                                WeightModel::kLtRandom,
                                WeightModel::kLtParallel};
  const std::vector<std::vector<NodeId>> seed_sets = {{0}, {0, 3}, {1, 5}};
  for (const WeightModel model : models) {
    Graph graph = OracleGraph();
    Rng rng(0x0badc0de);
    AssignWeights(graph, model, 0.3, rng);
    const DiffusionKind kind = DiffusionKindFor(model);
    for (const auto& seeds : seed_sets) {
      const double exact = ExactSpread(graph, kind, seeds);
      SpreadOptions options;
      options.simulations = 200000;
      options.seed = 99;
      const SpreadEstimate est = EstimateSpread(graph, kind, seeds, options);
      ExpectWithinThreeSigma(est.mean, exact, est.StdError(),
                             WeightModelName(model).c_str());
    }
  }
}

TEST(OracleTest, ExactSpreadHandComputableCases) {
  // Path 0 -> 1 -> 2 with weight p: σ({0}) = 1 + p + p^2.
  const double p = 0.4;
  Graph path = testutil::PathGraph(3, p);
  const std::vector<NodeId> seeds = {0};
  EXPECT_NEAR(ExactSpreadIc(path, seeds), 1.0 + p + p * p, 1e-12);
  // Under LT the live-edge distribution of a path is identical (each node
  // has one in-edge, live with probability p).
  EXPECT_NEAR(ExactSpreadLt(path, seeds), 1.0 + p + p * p, 1e-12);
  // Seeding every node is always exactly n.
  const std::vector<NodeId> all = {0, 1, 2};
  EXPECT_NEAR(ExactSpreadIc(path, all), 3.0, 1e-12);
  EXPECT_NEAR(ExactSpreadLt(path, all), 3.0, 1e-12);
}

TEST(OracleTest, RrEstimatorMatchesExactSpread) {
  // The RR identity: σ(S) = n * P[S hits a random RR set]. The hit count
  // is binomial, so the estimator must sit within 3 binomial sigmas.
  struct Case {
    WeightModel model;
    const char* label;
  };
  const Case cases[] = {{WeightModel::kWc, "IC/WC"},
                        {WeightModel::kLtUniform, "LT/uniform"}};
  const std::vector<NodeId> seeds = {0, 3};
  for (const Case& c : cases) {
    Graph graph = OracleGraph();
    Rng rng(0x5eed);
    AssignWeights(graph, c.model, 0.3, rng);
    const DiffusionKind kind = DiffusionKindFor(c.model);
    const double exact = ExactSpread(graph, kind, seeds);

    const uint64_t kSets = 20000;
    RrSampler sampler(graph, kind);
    RrCollection collection(graph.num_nodes());
    const RrBatchResult batch = sampler.Generate(17, kSets, collection);
    ASSERT_EQ(batch.generated, kSets);

    uint64_t hits = 0;
    for (size_t i = 0; i < collection.size(); ++i) {
      const auto set = collection.Set(i);
      for (const NodeId s : seeds) {
        if (std::find(set.begin(), set.end(), s) != set.end()) {
          ++hits;
          break;
        }
      }
    }
    const double n = graph.num_nodes();
    const double fraction = static_cast<double>(hits) / kSets;
    const double estimate = n * fraction;
    const double sigma =
        n * std::sqrt(fraction * (1.0 - fraction) / kSets);
    ExpectWithinThreeSigma(estimate, exact, sigma, c.label);
  }
}

TEST(OracleTest, AlgorithmsReachGreedyGuaranteeOfExhaustiveOptimum) {
  // ε = 0.1 slack on top of 1 - 1/e covers the MC noise in the selection
  // loops; on this graph the algorithms in fact find the exact optimum.
  const double kGuarantee = 1.0 - 1.0 / std::exp(1.0) - 0.1;
  const char* kAlgorithms[] = {"GREEDY", "CELF", "CELF++",
                               "SG",     "TIM+", "IMM"};
  const WeightModel models[] = {WeightModel::kWc, WeightModel::kLtUniform};
  const uint32_t k = 2;
  for (const WeightModel model : models) {
    Graph graph = OracleGraph();
    Rng rng(0xfeed);
    AssignWeights(graph, model, 0.3, rng);
    const DiffusionKind kind = DiffusionKindFor(model);
    const ExactOptResult optimum =
        BranchAndBoundOptimum(graph, kind, k, ExactOptOptions());
    ASSERT_TRUE(optimum.proven());
    ASSERT_GT(optimum.spread, 0);

    for (const char* name : kAlgorithms) {
      const AlgorithmSpec* spec = FindAlgorithm(name);
      ASSERT_NE(spec, nullptr) << name;
      if (!spec->Supports(kind)) continue;  // Table 5: SG & friends
      std::unique_ptr<ImAlgorithm> algorithm = MakeAlgorithm(name);
      SelectionInput input;
      input.graph = &graph;
      input.diffusion = kind;
      input.k = k;
      input.seed = 7;
      const SelectionResult selection = algorithm->Select(input);
      ASSERT_EQ(selection.seeds.size(), k)
          << name << " on " << WeightModelName(model);
      const std::set<NodeId> unique(selection.seeds.begin(),
                                    selection.seeds.end());
      EXPECT_EQ(unique.size(), k) << name << " returned duplicate seeds";
      const double achieved = ExactSpread(graph, kind, selection.seeds);
      EXPECT_GE(achieved, kGuarantee * optimum.spread)
          << name << " on " << WeightModelName(model) << ": oracle spread "
          << achieved << " vs optimum " << optimum.spread;
    }
  }
}

}  // namespace
}  // namespace imbench
