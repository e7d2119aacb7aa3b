#include "algorithms/lazy_queue.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "framework/trace.h"

namespace imbench {
namespace {

// A deterministic submodular function: weighted coverage over universes.
struct CoverageOracle {
  std::vector<std::set<int>> node_covers;  // node -> covered items
  std::set<int> covered;

  double Gain(NodeId v) const {
    double gain = 0;
    for (const int item : node_covers[v]) gain += covered.count(item) == 0;
    return gain;
  }
  void Commit(NodeId v) {
    covered.insert(node_covers[v].begin(), node_covers[v].end());
  }
};

TEST(CelfSelectTest, MatchesExhaustiveGreedyOnCoverage) {
  CoverageOracle oracle;
  oracle.node_covers = {
      {1, 2, 3, 4}, {3, 4, 5}, {5, 6}, {7}, {1, 7}, {8, 9, 10}};
  CoverageOracle exhaustive = oracle;

  const std::vector<NodeId> lazy = CelfSelect(
      6, 3, [&](NodeId v) { return oracle.Gain(v); },
      [&](NodeId v) { oracle.Commit(v); });

  // Exhaustive greedy for comparison.
  std::vector<NodeId> greedy;
  std::set<NodeId> chosen;
  for (int round = 0; round < 3; ++round) {
    NodeId best = kInvalidNode;
    double best_gain = -1;
    for (NodeId v = 0; v < 6; ++v) {
      if (chosen.count(v)) continue;
      const double gain = exhaustive.Gain(v);
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    chosen.insert(best);
    exhaustive.Commit(best);
    greedy.push_back(best);
  }
  EXPECT_EQ(lazy, greedy);
}

TEST(CelfSelectTest, CountsInitialPassPlusReevaluations) {
  CoverageOracle oracle;
  oracle.node_covers = {{1}, {2}, {3}};
  Trace trace;
  CelfSelect(
      3, 2, [&](NodeId v) { return oracle.Gain(v); },
      [&](NodeId v) { oracle.Commit(v); }, nullptr, &trace);
  // 3 initial evaluations; disjoint sets mean each later pop needs at most
  // one refresh.
  EXPECT_GE(trace.Total(TraceCounter::kNodeLookups), 3u);
  EXPECT_LE(trace.Total(TraceCounter::kNodeLookups), 5u);
}

TEST(CelfSelectTest, KLargerThanNodesReturnsAll) {
  CoverageOracle oracle;
  oracle.node_covers = {{1}, {2}};
  const std::vector<NodeId> seeds = CelfSelect(
      2, 10, [&](NodeId v) { return oracle.Gain(v); },
      [&](NodeId v) { oracle.Commit(v); });
  EXPECT_EQ(seeds.size(), 2u);
}

TEST(CelfSelectTest, TieBreaksByNodeIdDeterministically) {
  // All nodes identical: selection must be 0, 1, 2 in order.
  CoverageOracle oracle;
  oracle.node_covers = {{1}, {1}, {1}};
  const std::vector<NodeId> seeds = CelfSelect(
      3, 3, [&](NodeId v) { return oracle.Gain(v); },
      [&](NodeId v) { oracle.Commit(v); });
  EXPECT_EQ(seeds[0], 0u);
}

TEST(CelfSelectTest, LazyRefreshRespectsShrinkingGains) {
  // Node 0 looks best initially but overlaps the chosen node 1's coverage
  // entirely; CELF must refresh and pick node 2 second.
  CoverageOracle oracle;
  oracle.node_covers = {{1, 2, 3}, {1, 2, 3, 4}, {5, 6}};
  const std::vector<NodeId> seeds = CelfSelect(
      3, 2, [&](NodeId v) { return oracle.Gain(v); },
      [&](NodeId v) { oracle.Commit(v); });
  EXPECT_EQ(seeds, (std::vector<NodeId>{1, 2}));
}

}  // namespace
}  // namespace imbench
