#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/celf.h"
#include "algorithms/celfpp.h"
#include "algorithms/easyim.h"
#include "algorithms/greedy.h"
#include "framework/run_guard.h"
#include "framework/trace.h"
#include "graph/generators.h"
#include "graph/weights.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

SelectionInput InputFor(const Graph& graph, uint32_t k, Trace* trace,
                        DiffusionKind kind = DiffusionKind::kIndependentCascade) {
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = kind;
  input.k = k;
  input.seed = 11;
  input.trace = trace;
  return input;
}

TEST(GreedyTest, PicksTheHubFirst) {
  Graph g = testutil::HubGraph();
  Greedy greedy(GreedyOptions{500});
  const SelectionResult result = greedy.Select(InputFor(g, 1, nullptr));
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_GT(result.internal_spread_estimate, 1.0);
}

TEST(GreedyTest, TwoStarsPicksBothHubs) {
  Graph g = testutil::TwoStars(1.0);
  Greedy greedy(GreedyOptions{200});
  const SelectionResult result = greedy.Select(InputFor(g, 2, nullptr));
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);  // larger star first
  EXPECT_EQ(result.seeds[1], 4u);
}

TEST(CelfTest, MatchesGreedySeedsOnDeterministicGraph) {
  Graph g = testutil::TwoStars(1.0);
  Greedy greedy(GreedyOptions{100});
  Celf celf(CelfOptions{100});
  const auto greedy_seeds = greedy.Select(InputFor(g, 3, nullptr)).seeds;
  const auto celf_seeds = celf.Select(InputFor(g, 3, nullptr)).seeds;
  EXPECT_EQ(greedy_seeds[0], celf_seeds[0]);
  EXPECT_EQ(greedy_seeds[1], celf_seeds[1]);
}

TEST(CelfTest, LazyEvaluationSavesLookups) {
  Graph g = testutil::HubGraph();
  Trace greedy_trace, celf_trace;
  Greedy greedy(GreedyOptions{100});
  Celf celf(CelfOptions{100});
  greedy.Select(InputFor(g, 3, &greedy_trace));
  celf.Select(InputFor(g, 3, &celf_trace));
  EXPECT_LT(celf_trace.Total(TraceCounter::kNodeLookups),
            greedy_trace.Total(TraceCounter::kNodeLookups));
}

TEST(CelfPlusPlusTest, PicksTheHubFirst) {
  Graph g = testutil::HubGraph();
  CelfPlusPlus celfpp(CelfPlusPlusOptions{500});
  const SelectionResult result = celfpp.Select(InputFor(g, 2, nullptr));
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(CelfPlusPlusTest, SeedsAreDistinct) {
  Graph g = testutil::TwoStars(0.8);
  CelfPlusPlus celfpp(CelfPlusPlusOptions{300});
  const SelectionResult result = celfpp.Select(InputFor(g, 4, nullptr));
  std::set<NodeId> unique(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(unique.size(), result.seeds.size());
}

TEST(CelfPlusPlusTest, NodeLookupsAtMostCelf) {
  // Myth M1: CELF++'s pre-emption trims node lookups (but not wall time).
  // On deterministic graphs the pre-emption always hits, so lookups must
  // not exceed CELF's.
  Graph g = testutil::TwoStars(1.0);
  Trace celf_trace, celfpp_trace;
  Celf celf(CelfOptions{100});
  CelfPlusPlus celfpp(CelfPlusPlusOptions{100});
  celf.Select(InputFor(g, 3, &celf_trace));
  celfpp.Select(InputFor(g, 3, &celfpp_trace));
  EXPECT_LE(celfpp_trace.Total(TraceCounter::kNodeLookups),
            celf_trace.Total(TraceCounter::kNodeLookups) + 1);
  // ...while running strictly more simulations per lookup (the extra mg2
  // work that makes it no faster in practice).
  EXPECT_GE(celfpp_trace.Total(TraceCounter::kSimulations),
            celf_trace.Total(TraceCounter::kSimulations) / 2);
}

TEST(CelfFamilyTest, SimilarSpreadAcrossVariants) {
  Graph g = testutil::HubGraph(0.5, 0.3);
  Greedy greedy(GreedyOptions{1000});
  Celf celf(CelfOptions{1000});
  CelfPlusPlus celfpp(CelfPlusPlusOptions{1000});
  const double sg =
      greedy.Select(InputFor(g, 2, nullptr)).internal_spread_estimate;
  const double sc =
      celf.Select(InputFor(g, 2, nullptr)).internal_spread_estimate;
  const double sp =
      celfpp.Select(InputFor(g, 2, nullptr)).internal_spread_estimate;
  EXPECT_NEAR(sg, sc, 0.35);
  EXPECT_NEAR(sg, sp, 0.35);
}

TEST(CelfFamilyTest, WorksUnderLinearThreshold) {
  Graph g = testutil::TwoStars(1.0);
  Celf celf(CelfOptions{100});
  CelfPlusPlus celfpp(CelfPlusPlusOptions{100});
  const auto a =
      celf.Select(InputFor(g, 2, nullptr, DiffusionKind::kLinearThreshold));
  const auto b =
      celfpp.Select(InputFor(g, 2, nullptr, DiffusionKind::kLinearThreshold));
  EXPECT_EQ(a.seeds[0], 0u);
  EXPECT_EQ(b.seeds[0], 0u);
}

// BA(120, 3) with WC weights for IC and LT-uniform weights for LT.
Graph PinnedGraph(DiffusionKind kind) {
  Rng rng(23);
  EdgeList list = BarabasiAlbert(120, 3, rng);
  Graph g = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  if (kind == DiffusionKind::kIndependentCascade) {
    AssignWeightedCascade(g);
  } else {
    AssignLtUniform(g);
  }
  return g;
}

std::unique_ptr<ImAlgorithm> MakePinned(const std::string& name) {
  if (name == "GREEDY") return std::make_unique<Greedy>(GreedyOptions{100});
  if (name == "CELF") return std::make_unique<Celf>(CelfOptions{200});
  if (name == "CELF++") {
    return std::make_unique<CelfPlusPlus>(CelfPlusPlusOptions{200});
  }
  return std::make_unique<EasyIm>(EasyImOptions{});
}

// Pins the seeds, internal estimate and counters of each technique that
// estimates gains on the live-stream scalar cascade (StreamingScratch).
// The values were recorded from the original estimator loops; a change to
// the stream, the draw order or the summation order moves them.
TEST(CelfFamilyTest, PinnedSeedsAndEstimates) {
  struct Pinned {
    const char* name;
    DiffusionKind kind;
    std::vector<NodeId> seeds;
    double internal_spread_estimate;
    uint64_t simulations;
    uint64_t spread_evaluations;
  };
  constexpr DiffusionKind IC = DiffusionKind::kIndependentCascade;
  constexpr DiffusionKind LT = DiffusionKind::kLinearThreshold;
  const Pinned pinned[] = {
      {"GREEDY", IC, {109, 115, 108, 79}, 0x1.2deb851eb851fp+4, 47400, 474},
      {"CELF", IC, {109, 115, 108, 104}, 0x1.29851eb851eb8p+4, 26600, 129},
      {"CELF++", IC, {109, 115, 108, 79}, 0x1.2e8f5c28f5c29p+4, 25600, 124},
      {"EaSyIM", IC, {109, 115, 108, 79}, 0x1.33d70a3d70a3dp+4, 800, 16},
      {"GREEDY", LT, {109, 115, 113, 108}, 0x1.38a3d70a3d70ap+4, 47400, 474},
      {"CELF", LT, {109, 115, 108, 113}, 0x1.350a3d70a3d71p+4, 25800, 125},
      {"CELF++", LT, {109, 115, 108, 79}, 0x1.2eccccccccccdp+4, 25800, 125},
      {"EaSyIM", LT, {109, 108, 115, 113}, 0x1.3a3d70a3d70a4p+4, 800, 16},
  };
  for (const Pinned& p : pinned) {
    const Graph g = PinnedGraph(p.kind);
    Trace trace;
    const SelectionResult result =
        MakePinned(p.name)->Select(InputFor(g, 4, &trace, p.kind));
    const std::string label =
        std::string(p.name) + "/" + DiffusionKindName(p.kind);
    EXPECT_EQ(result.seeds, p.seeds) << label;
    EXPECT_EQ(result.internal_spread_estimate, p.internal_spread_estimate)
        << label;
    EXPECT_EQ(trace.Total(TraceCounter::kSimulations), p.simulations)
        << label;
    EXPECT_EQ(trace.Total(TraceCounter::kNodeLookups), p.spread_evaluations)
        << label;
  }
}

// A guard trip inside an estimate cuts it short; the trace must count the
// simulations that ran, not the r requested. Where the deadline lands is
// up to the clock, so each technique retries with a longer deadline until
// one trip falls inside an estimate (a count that is not a multiple of r).
TEST(CelfFamilyTest, GuardTripCountsCompletedSimulations) {
  constexpr uint32_t kSimulations = 1000;
  const Graph g = PinnedGraph(DiffusionKind::kIndependentCascade);
  const std::vector<std::unique_ptr<ImAlgorithm>> algorithms = [] {
    std::vector<std::unique_ptr<ImAlgorithm>> v;
    v.push_back(std::make_unique<Greedy>(GreedyOptions{kSimulations}));
    v.push_back(std::make_unique<Celf>(CelfOptions{kSimulations}));
    v.push_back(
        std::make_unique<CelfPlusPlus>(CelfPlusPlusOptions{kSimulations}));
    EasyImOptions easyim;
    easyim.simulations = kSimulations;
    v.push_back(std::make_unique<EasyIm>(easyim));
    return v;
  }();
  for (const auto& algorithm : algorithms) {
    bool tripped_inside = false;
    for (int attempt = 1; attempt <= 5 && !tripped_inside; ++attempt) {
      RunBudget budget;
      budget.deadline_seconds = 0.002 * attempt;
      RunGuard guard(budget);
      Trace trace;
      SelectionInput input = InputFor(g, 4, &trace);
      input.guard = &guard;
      algorithm->Select(input);
      const uint64_t traced = trace.Total(TraceCounter::kSimulations);
      tripped_inside = guard.stopped() && traced % kSimulations != 0;
    }
    EXPECT_TRUE(tripped_inside) << algorithm->name();
  }
}

}  // namespace
}  // namespace imbench
