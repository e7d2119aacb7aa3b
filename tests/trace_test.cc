// Trace-layer tests: span nesting and ordering, the JSON golden format,
// the zero-overhead null-trace guard, and — the load-bearing property —
// byte-identical phase breakdowns for every thread count.
#include "framework/trace.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/algorithm.h"
#include "diffusion/spread.h"
#include "framework/memory.h"
#include "framework/registry.h"
#include "graph/weights.h"

namespace imbench {
namespace {

TEST(TraceTest, SpansRecordNestingOrderParentAndDepth) {
  Trace trace;
  {
    Span sample(&trace, "sample");
    trace.Add(TraceCounter::kRrSets, 3);
  }
  {
    Span select(&trace, "select");
    {
      Span refine(&trace, "refine");
      trace.Add(TraceCounter::kNodeLookups, 2);
    }
    trace.Add(TraceCounter::kGuardPolls);
  }
  ASSERT_TRUE(trace.AllClosed());
  const auto& spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);

  EXPECT_EQ(spans[0].name, "sample");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_TRUE(spans[0].closed);

  EXPECT_EQ(spans[1].name, "select");
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[1].depth, 0);

  EXPECT_EQ(spans[2].name, "refine");
  EXPECT_EQ(spans[2].parent, 1);  // nested under "select"
  EXPECT_EQ(spans[2].depth, 1);

  // Per-span counters are inclusive of children; totals sum everything.
  const int rr = static_cast<int>(TraceCounter::kRrSets);
  const int lookups = static_cast<int>(TraceCounter::kNodeLookups);
  const int polls = static_cast<int>(TraceCounter::kGuardPolls);
  EXPECT_EQ(spans[0].counters[rr], 3u);
  EXPECT_EQ(spans[0].counters[lookups], 0u);
  EXPECT_EQ(spans[1].counters[lookups], 2u);  // inherited from "refine"
  EXPECT_EQ(spans[1].counters[polls], 1u);
  EXPECT_EQ(spans[2].counters[lookups], 2u);
  EXPECT_EQ(trace.Total(TraceCounter::kRrSets), 3u);
  EXPECT_EQ(trace.Total(TraceCounter::kNodeLookups), 2u);
  EXPECT_EQ(trace.Total(TraceCounter::kGuardPolls), 1u);
}

TEST(TraceTest, EarlyCloseEndsTheSpanOnce) {
  Trace trace;
  Span span(&trace, "sample");
  span.Close();
  EXPECT_TRUE(trace.AllClosed());
  // The destructor must now be a no-op (would CHECK otherwise).
}

TEST(TraceTest, JsonGoldenDeterministicDocument) {
  Trace trace;
  {
    Span sample(&trace, "sample");
    trace.Add(TraceCounter::kRrSets, 3);
    trace.Add(TraceCounter::kRrEdgesExamined, 17);
  }
  {
    Span select(&trace, "select");
    {
      Span refine(&trace, "refine");
      trace.Add(TraceCounter::kNodeLookups, 2);
    }
    trace.Add(TraceCounter::kGuardPolls);
  }
  const std::string expected = R"json({
  "version": 1,
  "counters": {
    "rr_sets": 3,
    "rr_edges_examined": 17,
    "simulations": 0,
    "node_lookups": 2,
    "queue_reevaluations": 0,
    "snapshots": 0,
    "scoring_rounds": 0,
    "guard_polls": 1,
    "rr_sets_repaired": 0,
    "rr_sets_reused": 0,
    "corpus_epochs": 0,
    "fused_blocks": 0,
    "bnb_nodes_expanded": 0,
    "bnb_pruned": 0,
    "graph_bytes_mapped": 0,
    "neighbor_blocks_decoded": 0
  },
  "phases": [
    {"name": "sample", "parent": -1, "depth": 0, "counters": {"rr_sets": 3, "rr_edges_examined": 17}},
    {"name": "select", "parent": -1, "depth": 0, "counters": {"node_lookups": 2, "guard_polls": 1}},
    {"name": "refine", "parent": 1, "depth": 1, "counters": {"node_lookups": 2}}
  ]
}
)json";
  EXPECT_EQ(trace.ToJson(/*include_timings=*/false), expected);

  // The full document adds a "timings" object; the deterministic prefix is
  // unchanged.
  const std::string timed = trace.ToJson(/*include_timings=*/true);
  EXPECT_NE(timed.find("\"timings\""), std::string::npos);
  EXPECT_NE(timed.find("\"elapsed_seconds\""), std::string::npos);
}

TEST(TraceTest, WriteJsonFileRoundTrips) {
  Trace trace;
  { Span span(&trace, "sample"); }
  const std::string path = ::testing::TempDir() + "/trace_test_out.json";
  ASSERT_TRUE(trace.WriteJsonFile(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_FALSE(content.empty());
  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"phases\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceTest, NullTraceIsZeroOverhead) {
  // The instrumented hot paths pass nullptr when tracing is off; the guard
  // and helper must not allocate a single byte.
  const uint64_t heap_before = CurrentHeapBytes();
  for (int i = 0; i < 1000; ++i) {
    Span span(nullptr, "sample");
    TraceAdd(nullptr, TraceCounter::kSimulations, 42);
    span.Close();
  }
  EXPECT_EQ(CurrentHeapBytes(), heap_before);
}

TEST(TraceDeathTest, OutOfOrderCloseChecksLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Trace trace;
  const int32_t outer = trace.OpenSpan("outer");
  trace.OpenSpan("inner");
  EXPECT_DEATH(trace.CloseSpan(outer), "LIFO");
}

TEST(TraceDeathTest, ToJsonWithOpenSpansChecksLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Trace trace;
  trace.OpenSpan("still-open");
  EXPECT_DEATH((void)trace.ToJson(), "open spans");
}

// --- Determinism: the phase breakdown may not depend on the thread count.

Graph DeterminismGraph() {
  const NodeId n = 300;
  std::vector<Arc> arcs;
  for (NodeId i = 0; i < n; ++i) {
    arcs.push_back(Arc{i, (i + 1) % n});
    arcs.push_back(Arc{i, (i * 7 + 3) % n});
    arcs.push_back(Arc{i, (i * 13 + 5) % n});
  }
  Graph graph = Graph::FromArcs(n, std::move(arcs));
  Rng rng(0x7ace);
  AssignWeights(graph, WeightModel::kWc, 0.1, rng);
  return graph;
}

// One driver-shaped run: selection (the algorithm's own spans) plus the
// decoupled MC evaluation, everything recorded in a fresh trace.
std::string RunTraced(const Graph& graph, const char* algorithm,
                      uint32_t threads) {
  Trace trace;
  std::unique_ptr<ImAlgorithm> instance = MakeAlgorithm(algorithm);
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = 5;
  input.seed = 11;
  input.threads = threads;
  input.trace = &trace;
  const SelectionResult selection = instance->Select(input);

  SpreadOptions eval;
  eval.simulations = 500;
  eval.seed = 23;
  eval.threads = threads;
  eval.trace = &trace;
  Span evaluate_span(&trace, "evaluate");
  (void)EstimateSpread(graph, input.diffusion, selection.seeds, eval);
  evaluate_span.Close();
  return trace.ToJson(/*include_timings=*/false);
}

TEST(TraceDeterminismTest, ImmPhaseBreakdownIdenticalAcrossThreadCounts) {
  const Graph graph = DeterminismGraph();
  const std::string sequential = RunTraced(graph, "IMM", 1);
  EXPECT_EQ(RunTraced(graph, "IMM", 2), sequential);
  EXPECT_EQ(RunTraced(graph, "IMM", 8), sequential);
  // The breakdown actually contains work, not just zeros.
  EXPECT_NE(sequential.find("\"sample\""), std::string::npos);
  EXPECT_NE(sequential.find("\"select\""), std::string::npos);
  EXPECT_NE(sequential.find("\"evaluate\""), std::string::npos);
}

TEST(TraceDeterminismTest, TimPlusPhaseBreakdownIdenticalAcrossThreadCounts) {
  const Graph graph = DeterminismGraph();
  const std::string sequential = RunTraced(graph, "TIM+", 1);
  EXPECT_EQ(RunTraced(graph, "TIM+", 2), sequential);
  EXPECT_EQ(RunTraced(graph, "TIM+", 8), sequential);
  EXPECT_NE(sequential.find("\"kpt\""), std::string::npos);
}

TEST(TraceDeterminismTest, CountersSumConsistentlyWithReportedTotals) {
  // The drivers print trace totals as the run's counters; every unit of
  // work must land in exactly one root span.
  const Graph graph = DeterminismGraph();
  Trace trace;
  std::unique_ptr<ImAlgorithm> instance = MakeAlgorithm("IMM");
  SelectionInput input;
  input.graph = &graph;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = 5;
  input.seed = 11;
  input.trace = &trace;
  (void)instance->Select(input);
  EXPECT_GT(trace.Total(TraceCounter::kRrSets), 0u);
  EXPECT_GT(trace.Total(TraceCounter::kRrEdgesExamined), 0u);
  // Root spans partition the totals: their counter sums must equal the
  // trace-wide totals (children are inclusive, so only roots are summed).
  TraceCounterArray root_sum{};
  for (const TraceSpan& span : trace.spans()) {
    if (span.parent != -1) continue;
    for (int c = 0; c < kNumTraceCounters; ++c) {
      root_sum[c] += span.counters[c];
    }
  }
  for (int c = 0; c < kNumTraceCounters; ++c) {
    EXPECT_EQ(root_sum[c], trace.Total(static_cast<TraceCounter>(c)))
        << TraceCounterName(static_cast<TraceCounter>(c));
  }
}

}  // namespace
}  // namespace imbench
