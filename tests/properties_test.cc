// Cross-engine statistical property tests tying the simulators together:
//  * the RR-set theorem: P[RR set ∩ S ≠ ∅] = σ(S) / n (Borgs et al.),
//    which must hold for both the forward cascade engine and the reverse
//    sampler or every RR-based algorithm is silently biased;
//  * monotonicity of spread in the edge probabilities and in the seed set;
//  * LT spread equals the live-edge (one-in-edge) interpretation.
#include <vector>

#include <gtest/gtest.h>

#include "diffusion/rr_sets.h"
#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "framework/registry.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

double RrHitRate(const Graph& graph, DiffusionKind kind,
                 const std::vector<NodeId>& seeds, int samples,
                 uint64_t seed) {
  RrSampler sampler(graph, kind);
  std::vector<uint8_t> is_seed(graph.num_nodes(), 0);
  for (const NodeId s : seeds) is_seed[s] = 1;
  std::vector<NodeId> set;
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    sampler.GenerateStream(seed, i, set);
    for (const NodeId v : set) {
      if (is_seed[v]) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / samples;
}

class RrTheoremTest : public ::testing::TestWithParam<WeightModel> {};

TEST_P(RrTheoremTest, HitRateMatchesNormalizedSpread) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  Rng wrng(3);
  AssignWeights(g, GetParam(), 0.1, wrng);
  const DiffusionKind kind = DiffusionKindFor(GetParam());
  const std::vector<NodeId> seeds = {1, 4, 9, 16, 25};

  const double sigma =
      EstimateSpread(g, kind, seeds, testutil::SpreadOpts(20000, 7)).mean;
  const double hit_rate = RrHitRate(g, kind, seeds, 20000, /*seed=*/13);
  const double predicted = sigma / g.num_nodes();
  EXPECT_NEAR(hit_rate, predicted, 0.012)
      << "sigma=" << sigma << " n=" << g.num_nodes();
}

INSTANTIATE_TEST_SUITE_P(
    Models, RrTheoremTest,
    ::testing::Values(WeightModel::kIcConstant, WeightModel::kWc,
                      WeightModel::kLtUniform, WeightModel::kLtRandom),
    [](const ::testing::TestParamInfo<WeightModel>& info) {
      std::string name = WeightModelName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(SpreadPropertiesTest, MonotoneInEdgeProbability) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  const std::vector<NodeId> seeds = {0, 1, 2};
  double previous = 0;
  for (const double p : {0.01, 0.05, 0.1, 0.2}) {
    AssignConstantWeights(g, p);
    const double sigma =
        EstimateSpread(g, DiffusionKind::kIndependentCascade, seeds,
                       testutil::SpreadOpts(4000, 9))
            .mean;
    EXPECT_GE(sigma, previous - 0.2) << p;  // small MC slack
    previous = sigma;
  }
}

TEST(SpreadPropertiesTest, MonotoneInSeedSetAcrossPrefixes) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  std::vector<NodeId> seeds;
  double previous = 0;
  for (NodeId v = 0; v < 20; v += 2) {
    seeds.push_back(v);
    const double sigma =
        EstimateSpread(g, DiffusionKind::kIndependentCascade, seeds,
                       testutil::SpreadOpts(3000, 5))
            .mean;
    EXPECT_GE(sigma, previous - 0.2);
    previous = sigma;
  }
}

TEST(SpreadPropertiesTest, SubmodularDiminishingReturns) {
  // On the hub graph, the marginal gain of adding child 1 after the hub is
  // far below its standalone spread.
  Graph g = testutil::HubGraph(0.9, 0.05);
  const std::vector<NodeId> hub = {0};
  const std::vector<NodeId> child = {1};
  const std::vector<NodeId> both = {0, 1};
  const double s_hub =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, hub,
                     testutil::SpreadOpts(20000, 3))
          .mean;
  const double s_child =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, child,
                     testutil::SpreadOpts(20000, 3))
          .mean;
  const double s_both =
      EstimateSpread(g, DiffusionKind::kIndependentCascade, both,
                     testutil::SpreadOpts(20000, 3))
          .mean;
  EXPECT_LT(s_both - s_hub, s_child - 0.05);
}

TEST(SpreadPropertiesTest, LtLiveEdgeEquivalence) {
  // Kempe et al.: LT spread equals the reachable-set size under the
  // one-live-in-edge distribution. Verify on a small graph by comparing
  // the threshold simulator against an explicit live-edge simulator.
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  const std::vector<NodeId> seeds = {2, 3};

  const double threshold_sigma =
      EstimateSpread(g, DiffusionKind::kLinearThreshold, seeds,
                     testutil::SpreadOpts(20000, 17))
          .mean;

  // Live-edge simulation: every node keeps one in-edge with probability
  // equal to its weight; spread = forward-reachable set from the seeds.
  double live_edge_total = 0;
  const int runs = 20000;
  std::vector<NodeId> chosen_parent(g.num_nodes());
  std::vector<uint32_t> visited(g.num_nodes(), 0);
  uint32_t epoch = 0;
  for (int run = 0; run < runs; ++run) {
    Rng rng = Rng::ForStream(23, run);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      chosen_parent[v] = kInvalidNode;
      const auto sources = g.InSources(v);
      const auto weights = g.InWeights(v);
      double r = rng.NextDouble();
      for (size_t i = 0; i < sources.size(); ++i) {
        if (r < weights[i]) {
          chosen_parent[v] = sources[i];
          break;
        }
        r -= weights[i];
      }
    }
    // BFS over live edges (parent -> child means child activates).
    ++epoch;
    std::vector<NodeId> queue(seeds.begin(), seeds.end());
    for (const NodeId s : seeds) visited[s] = epoch;
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : g.OutTargets(u)) {
        if (visited[v] != epoch && chosen_parent[v] == u) {
          visited[v] = epoch;
          queue.push_back(v);
        }
      }
    }
    live_edge_total += static_cast<double>(queue.size());
  }
  const double live_edge_sigma = live_edge_total / runs;
  EXPECT_NEAR(threshold_sigma, live_edge_sigma,
              0.02 * threshold_sigma + 0.3);
}

}  // namespace
}  // namespace imbench
