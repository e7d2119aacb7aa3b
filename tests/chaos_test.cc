// Chaos suite: replay query+mutation workloads under deterministic fault
// plans and assert the self-healing service serves seeds byte-identical to
// the fault-free run. Every recovery path — a retry under the one rule
// (RetryTransient, kTransientRetries), a cold rebuild — is a deterministic
// rebuild of the same per-index RR streams, so faults may cost time but
// never change answers.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/tim_plus.h"
#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/fault.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"
#include "service/im_service.h"
#include "service/workload.h"

namespace imbench {
namespace {

constexpr uint64_t kSeed = 29;
constexpr double kEpsilon = 4.0;

Graph ChaosTestGraph(DiffusionKind kind) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  if (kind == DiffusionKind::kIndependentCascade) {
    AssignWeightedCascade(g);
  } else {
    AssignLtUniform(g);
  }
  return g;
}

WeightedArc MissingArc(const Graph& graph, double weight) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (u != v && graph.FindEdge(u, v) == kInvalidEdge) {
        return WeightedArc{u, v, weight};
      }
    }
  }
  ADD_FAILURE() << "graph is complete";
  return WeightedArc{};
}

WeightedArc ExistingArc(const Graph& graph, double weight) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto targets = graph.OutTargets(u);
    if (!targets.empty()) return WeightedArc{u, targets[0], weight};
  }
  ADD_FAILURE() << "graph has no edges";
  return WeightedArc{};
}

// The canonical chaos workload: query, add an edge, query, retune a
// weight, query. Mutation arcs are chosen on the pristine graph, so every
// run replays the identical op sequence.
std::vector<WorkloadOp> ChaosOps(DiffusionKind kind, uint32_t k = 5) {
  const Graph base = ChaosTestGraph(kind);
  WorkloadOp query;
  query.kind = WorkloadOp::Kind::kQuery;
  query.query.k = k;
  WorkloadOp add;
  add.kind = WorkloadOp::Kind::kAddEdges;
  add.arcs.push_back(MissingArc(base, 0.4));
  WorkloadOp update;
  update.kind = WorkloadOp::Kind::kUpdateWeights;
  update.arcs.push_back(ExistingArc(base, 0.05));
  return {query, add, query, update, query};
}

struct ChaosRun {
  ReplayResult replay;
  std::vector<std::vector<NodeId>> seeds;
};

// Replays `ops` on a fresh store+service, appending the replay record to
// *log when given. Fault behavior comes from whatever plan is (or is not)
// armed on the global injector.
ChaosRun RunOps(DiffusionKind kind, uint32_t threads,
                const std::vector<WorkloadOp>& ops,
                std::string* log = nullptr) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  EpochGraphStore store(ChaosTestGraph(kind));
  ServiceOptions options;
  options.kind = kind;
  options.epsilon = kEpsilon;
  options.seed = kSeed;
  options.threads = threads;
  options.pool = pool.get();
  options.retry_backoff_seconds = 0;  // chaos tests should not sleep
  ImService service(store, options);
  ReplayOptions replay_options;
  replay_options.keep_going = true;
  ChaosRun run;
  run.replay = ReplayWorkload(store, service, ops, log, replay_options);
  for (const ImQueryResult& q : run.replay.queries) {
    run.seeds.push_back(q.seeds);
  }
  return run;
}

ChaosRun FaultFreeBaseline(DiffusionKind kind,
                           const std::vector<WorkloadOp>& ops) {
  FaultInjector::Global().Disarm();
  ChaosRun baseline = RunOps(kind, /*threads=*/1, ops);
  EXPECT_EQ(baseline.replay.retries, 0u);
  EXPECT_EQ(baseline.replay.degraded, 0u);
  EXPECT_EQ(baseline.replay.errors, 0u);
  for (const ImQueryResult& q : baseline.replay.queries) {
    EXPECT_TRUE(q.complete());
  }
  return baseline;
}

FaultPlan OneRule(std::string_view site, uint64_t hit, uint64_t fires,
                  StopReason reason = StopReason::kFault) {
  FaultRule rule;
  rule.site = std::string(site);
  rule.fire_on_hit = hit;
  rule.max_fires = fires;
  rule.reason = reason;
  FaultPlan plan;
  plan.rules.push_back(rule);
  return plan;
}

// Transient arena-growth failures (simulated OOM) during the first
// top-up, one or as many as the retry budget absorbs: the service retries
// in place and the answer does not change.
TEST(ChaosTest, TransientArenaFaultIsRetriedInPlace) {
  for (const DiffusionKind kind : {DiffusionKind::kIndependentCascade,
                                   DiffusionKind::kLinearThreshold}) {
    const std::vector<WorkloadOp> ops = ChaosOps(kind);
    const ChaosRun baseline = FaultFreeBaseline(kind, ops);
    for (const uint32_t threads : {1u, 2u, 8u}) {
      for (const uint32_t fires : {1u, kTransientRetries}) {
        SCOPED_TRACE(testing::Message() << DiffusionKindName(kind)
                                        << " threads " << threads
                                        << " fires " << fires);
        ScopedFaultPlan scoped(
            OneRule(faultsite::kRrArenaGrow, /*hit=*/1, fires));
        const ChaosRun chaos = RunOps(kind, threads, ops);
        EXPECT_EQ(chaos.seeds, baseline.seeds);
        EXPECT_EQ(chaos.replay.retries, fires);
        EXPECT_EQ(chaos.replay.degraded, 0u);
        EXPECT_EQ(chaos.replay.errors, 0u);
      }
    }
  }
}

// Serves one k=5 query on a fresh service, tracing into *trace.
ImQueryResult ServeOneQuery(DiffusionKind kind, uint32_t threads,
                            Trace* trace) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
  EpochGraphStore store(ChaosTestGraph(kind));
  ServiceOptions options;
  options.kind = kind;
  options.epsilon = kEpsilon;
  options.seed = kSeed;
  options.threads = threads;
  options.pool = pool.get();
  options.trace = trace;
  options.retry_backoff_seconds = 0;
  ImService service(store, options);
  ImQuery query;
  query.k = 5;
  return service.Query(query);
}

// The arena fails on every attempt but the last one the retry budget
// allows: the top-up is served on its configured lanes with the fault-free
// seeds, the fault-free corpus and the fault-free examined-edge count.
TEST(ChaosTest, ArenaFaultWithinRetryBudgetServesFaultFreeSeeds) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  FaultInjector::Global().Disarm();
  Trace reference_trace;
  const ImQueryResult reference = ServeOneQuery(kind, 1, &reference_trace);
  ASSERT_TRUE(reference.complete());
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    // Each failed attempt consumes exactly one hit (the merge faults on
    // the first set, before appending anything), so the window defeats
    // the first try and all but the last retry.
    ScopedFaultPlan scoped(OneRule(faultsite::kRrArenaGrow, /*hit=*/1,
                                   /*fires=*/kTransientRetries));
    Trace trace;
    const ImQueryResult served = ServeOneQuery(kind, threads, &trace);
    EXPECT_TRUE(served.complete());
    EXPECT_EQ(served.retries, kTransientRetries);
    EXPECT_EQ(served.degraded, DegradeMode::kNone);
    EXPECT_EQ(served.sets_sampled, reference.sets_sampled);
    EXPECT_EQ(served.seeds, reference.seeds);
    EXPECT_EQ(trace.Total(TraceCounter::kRrEdgesExamined),
              reference_trace.Total(TraceCounter::kRrEdgesExamined));
  }
}

// One fault more than the budget: the top-up makes exactly
// 1 + kTransientRetries attempts on its configured lanes, then reports
// stop=fault with best-effort seeds, as a budget trip does.
TEST(ChaosTest, ExhaustedTopUpStopsWithFault) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ScopedFaultPlan scoped(OneRule(faultsite::kRrArenaGrow, /*hit=*/1,
                                   /*fires=*/kTransientRetries + 1));
    const ImQueryResult served = ServeOneQuery(kind, threads, nullptr);
    EXPECT_EQ(FaultInjector::Global().Hits(faultsite::kRrArenaGrow),
              1 + kTransientRetries);
    EXPECT_EQ(served.stop_reason, StopReason::kFault);
    EXPECT_EQ(served.retries, kTransientRetries);
    EXPECT_EQ(served.degraded, DegradeMode::kNone);
    EXPECT_EQ(served.sets_sampled, 0u);
  }
}

// A sampler lane dies mid-wave: the wave drains, the merged corpus stays a
// prefix of the deterministic sequence, and the retry resumes from exactly
// the dropped index. One lane takes the same path as several.
TEST(ChaosTest, SamplerLaneFaultDrainsWaveAndRetries) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> ops = ChaosOps(kind);
  const ChaosRun baseline = FaultFreeBaseline(kind, ops);
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ScopedFaultPlan scoped(
        OneRule(faultsite::kSamplerLane, /*hit=*/3, /*fires=*/1));
    const ChaosRun chaos = RunOps(kind, threads, ops);
    EXPECT_EQ(chaos.seeds, baseline.seeds);
    EXPECT_GE(chaos.replay.retries, 1u);
    EXPECT_EQ(chaos.replay.degraded, 0u);
  }
}

// One transient fault inside the repair loop: the corpus is untouched
// (splice is all-or-nothing), the retry repairs from the same state.
TEST(ChaosTest, TransientRepairFaultIsRetriedInPlace) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> ops = ChaosOps(kind);
  const ChaosRun baseline = FaultFreeBaseline(kind, ops);
  ScopedFaultPlan scoped(
      OneRule(faultsite::kServiceRepair, /*hit=*/1, /*fires=*/1));
  const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
  EXPECT_EQ(chaos.seeds, baseline.seeds);
  ASSERT_EQ(chaos.replay.queries.size(), baseline.replay.queries.size());
  EXPECT_GT(chaos.replay.queries[1].sets_repaired, 0u);
  EXPECT_GE(chaos.replay.queries[1].retries, 1u);
  EXPECT_EQ(chaos.replay.degraded, 0u);
}

// Repair keeps faulting past the retry budget: the warm corpus is
// discarded and the query rebuilds cold — full θ resampled, same seeds.
TEST(ChaosTest, ExhaustedRepairFallsBackToColdRebuild) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> ops = ChaosOps(kind);
  const ChaosRun baseline = FaultFreeBaseline(kind, ops);
  ScopedFaultPlan scoped(OneRule(faultsite::kServiceRepair, /*hit=*/1,
                                 /*fires=*/kTransientRetries + 1));
  const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
  EXPECT_EQ(chaos.seeds, baseline.seeds);
  ASSERT_GE(chaos.replay.queries.size(), 2u);
  const ImQueryResult& degraded = chaos.replay.queries[1];
  EXPECT_EQ(degraded.degraded, DegradeMode::kColdRebuild);
  EXPECT_EQ(degraded.retries, kTransientRetries);
  EXPECT_EQ(degraded.sets_repaired, 0u);
  const Graph base = ChaosTestGraph(kind);
  EXPECT_EQ(degraded.sets_sampled,
            ImService::RequiredSets(base.num_nodes(), 5, kEpsilon));
  EXPECT_GE(chaos.replay.degraded, 1u);
}

// The repair makes exactly 1 + kTransientRetries attempts: a fault window
// of kTransientRetries is repaired warm on the last attempt, one more
// falls back to the cold rebuild. Each failed attempt dies on its first
// set, one hit; the successful one hits once per regenerated set.
TEST(ChaosTest, RepairMakesOnePlusRetryBudgetAttempts) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> all = ChaosOps(kind);
  // query, add, query: one migration, so the site's hits count its
  // attempts.
  const std::vector<WorkloadOp> ops(all.begin(), all.begin() + 3);
  const ChaosRun baseline = FaultFreeBaseline(kind, ops);
  {
    ScopedFaultPlan scoped(OneRule(faultsite::kServiceRepair, /*hit=*/1,
                                   /*fires=*/kTransientRetries));
    const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
    EXPECT_EQ(chaos.seeds, baseline.seeds);
    ASSERT_EQ(chaos.replay.queries.size(), 2u);
    const ImQueryResult& repaired = chaos.replay.queries[1];
    EXPECT_EQ(repaired.degraded, DegradeMode::kNone);
    EXPECT_EQ(repaired.retries, kTransientRetries);
    EXPECT_GT(repaired.sets_repaired, 0u);
    EXPECT_EQ(FaultInjector::Global().Hits(faultsite::kServiceRepair),
              kTransientRetries + repaired.sets_repaired);
  }
  {
    ScopedFaultPlan scoped(OneRule(faultsite::kServiceRepair, /*hit=*/1,
                                   /*fires=*/kTransientRetries + 1));
    const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
    EXPECT_EQ(chaos.seeds, baseline.seeds);
    ASSERT_EQ(chaos.replay.queries.size(), 2u);
    EXPECT_EQ(chaos.replay.queries[1].degraded, DegradeMode::kColdRebuild);
    EXPECT_EQ(chaos.replay.queries[1].retries, kTransientRetries);
    EXPECT_EQ(FaultInjector::Global().Hits(faultsite::kServiceRepair),
              1 + kTransientRetries);
  }
}

// The publish makes exactly 1 + kTransientRetries attempts: a fault window
// of kTransientRetries lands the mutation on the last attempt, one more
// writes the error record and leaves the store on its old epoch.
TEST(ChaosTest, PublishMakesOnePlusRetryBudgetAttempts) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> all = ChaosOps(kind);
  const std::vector<WorkloadOp> ops(all.begin(), all.begin() + 3);
  const ChaosRun baseline = FaultFreeBaseline(kind, ops);
  {
    ScopedFaultPlan scoped(OneRule(faultsite::kEpochRebuild, /*hit=*/1,
                                   /*fires=*/kTransientRetries));
    const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
    EXPECT_EQ(chaos.seeds, baseline.seeds);
    EXPECT_EQ(chaos.replay.mutations, 1u);
    EXPECT_EQ(chaos.replay.retries, kTransientRetries);
    EXPECT_EQ(chaos.replay.errors, 0u);
    EXPECT_EQ(FaultInjector::Global().Hits(faultsite::kEpochRebuild),
              1 + kTransientRetries);
  }
  {
    ScopedFaultPlan scoped(OneRule(faultsite::kEpochRebuild, /*hit=*/1,
                                   /*fires=*/kTransientRetries + 1));
    std::string log;
    const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops, &log);
    EXPECT_EQ(chaos.replay.mutations, 0u);
    EXPECT_EQ(chaos.replay.final_epoch, 0u);
    EXPECT_EQ(chaos.replay.retries, kTransientRetries);
    EXPECT_EQ(chaos.replay.errors, 1u);
    EXPECT_NE(log.find("\"op\":\"error\""), std::string::npos) << log;
    EXPECT_EQ(FaultInjector::Global().Hits(faultsite::kEpochRebuild),
              1 + kTransientRetries);
  }
}

// A mutation's epoch rebuild fails to publish: all-or-nothing, the store
// stays on the old epoch, and the replay's bounded retry lands it.
TEST(ChaosTest, EpochRebuildFaultIsRetriedByReplay) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> ops = ChaosOps(kind);
  const ChaosRun baseline = FaultFreeBaseline(kind, ops);
  ScopedFaultPlan scoped(
      OneRule(faultsite::kEpochRebuild, /*hit=*/1, /*fires=*/1));
  const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
  EXPECT_EQ(chaos.seeds, baseline.seeds);
  EXPECT_EQ(chaos.replay.mutations, baseline.replay.mutations);
  EXPECT_EQ(chaos.replay.final_epoch, baseline.replay.final_epoch);
  EXPECT_GE(chaos.replay.retries, 1u);
  EXPECT_EQ(chaos.replay.errors, 0u);
}

// The rebuild failure persists through every retry: with keep-going the
// mutation is reported as an error record, the store stays consistent on
// its old epoch, and later queries are served against it.
TEST(ChaosTest, PersistentEpochRebuildFaultReportsErrorAndContinues) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const std::vector<WorkloadOp> ops = ChaosOps(kind);
  ScopedFaultPlan scoped(
      OneRule(faultsite::kEpochRebuild, /*hit=*/1, /*fires=*/1000));
  const ChaosRun chaos = RunOps(kind, /*threads=*/1, ops);
  EXPECT_EQ(chaos.replay.errors, 2u);  // both mutations failed
  EXPECT_EQ(chaos.replay.mutations, 0u);
  EXPECT_EQ(chaos.replay.final_epoch, 0u);
  ASSERT_EQ(chaos.replay.queries.size(), 3u);
  // No mutation ever landed, so the warm repeats serve the exact same
  // seeds as the first query.
  EXPECT_EQ(chaos.seeds[1], chaos.seeds[0]);
  EXPECT_EQ(chaos.seeds[2], chaos.seeds[0]);
}

// A fault plan can simulate a *fatal* budget trip at an exact site and
// hit: the guard trips mid-top-up, the query serves best-effort partial
// seeds, and the next query completes the corpus with no damage.
TEST(ChaosTest, GuardTripDuringTopUpServesPartialThenRecovers) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    EpochGraphStore store(ChaosTestGraph(kind));
    ServiceOptions options;
    options.kind = kind;
    options.epsilon = kEpsilon;
    options.seed = kSeed;
    options.threads = threads;
    options.pool = pool.get();
    options.retry_backoff_seconds = 0;
    ImService service(store, options);

    ImQuery query;
    query.k = 5;
    {
      ScopedFaultPlan scoped(OneRule(faultsite::kRrArenaGrow, /*hit=*/5,
                                     /*fires=*/1, StopReason::kCancelled));
      const ImQueryResult partial = service.Query(query);
      EXPECT_EQ(partial.stop_reason, StopReason::kCancelled);
      EXPECT_FALSE(partial.complete());
      EXPECT_EQ(partial.retries, 0u);  // fatal stops are not retried
    }
    const ImQueryResult ok = service.Query(query);
    EXPECT_TRUE(ok.complete());

    // Reference: a fault-free service on an identical store.
    EpochGraphStore ref_store(ChaosTestGraph(kind));
    ImService reference(ref_store, options);
    EXPECT_EQ(ok.seeds, reference.Query(query).seeds);
  }
}

// A fatal trip mid-repair: the half-repaired state is discarded wholesale
// (a partial splice would be silently wrong) and the next query
// cold-rebuilds to the exact fault-free answer.
TEST(ChaosTest, GuardTripDuringRepairDiscardsAllOrNothing) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);
    EpochGraphStore store(ChaosTestGraph(kind));
    ServiceOptions options;
    options.kind = kind;
    options.epsilon = kEpsilon;
    options.seed = kSeed;
    options.threads = threads;
    options.pool = pool.get();
    options.retry_backoff_seconds = 0;
    ImService service(store, options);

    ImQuery query;
    query.k = 5;
    service.Query(query);  // warm corpus on epoch 0
    store.AddEdges(
        {{MissingArc(*store.Current().graph, 0.4)}});  // invalidate

    {
      ScopedFaultPlan scoped(OneRule(faultsite::kServiceRepair, /*hit=*/1,
                                     /*fires=*/1, StopReason::kCancelled));
      const ImQueryResult doomed = service.Query(query);
      EXPECT_EQ(doomed.stop_reason, StopReason::kCancelled);
      EXPECT_EQ(doomed.degraded, DegradeMode::kColdRebuild);
      EXPECT_EQ(doomed.sets_repaired, 0u);
    }

    const ImQueryResult recovered = service.Query(query);
    EXPECT_TRUE(recovered.complete());
    EXPECT_EQ(recovered.degraded, DegradeMode::kNone);

    // Reference: replay the same mutation fault-free.
    EpochGraphStore ref_store(ChaosTestGraph(kind));
    ImService reference(ref_store, options);
    reference.Query(query);
    ref_store.AddEdges({{MissingArc(ChaosTestGraph(kind), 0.4)}});
    EXPECT_EQ(recovered.seeds, reference.Query(query).seeds);
  }
}

// im_run's `--keep-going` contract for the out-of-core backend: when the
// `.imgrf` cannot be opened — injected I/O fault or a torn file on disk —
// the run degrades to edge-list loading instead of dying, and the degraded
// run selects the exact seeds the healthy compact-backend run selects
// (both backends replay identical per-index RR streams).
TEST(ChaosTest, GraphFileFaultDegradesToEdgeListLoadingWithSameSeeds) {
  FaultInjector::Global().Disarm();
  Graph base = ChaosTestGraph(DiffusionKind::kIndependentCascade);
  const std::string path = ::testing::TempDir() + "/chaos_degrade.imgrf";
  std::string error;
  ASSERT_TRUE(WriteGraphFile(base, WeightModel::kWc, path, &error)) << error;

  auto seeds_on = [](const Graph* graph, const CompactGraph* compact) {
    TimPlus algorithm({});
    SelectionInput input;
    input.graph = graph;
    input.compact = compact;
    input.diffusion = DiffusionKind::kIndependentCascade;
    input.k = 5;
    input.seed = kSeed;
    return algorithm.Select(input).seeds;
  };

  // Healthy run on the compact backend: the baseline answer.
  CompactGraph compact;
  ASSERT_EQ(CompactGraph::Open(path, &compact, &error), SealedStatus::kOk)
      << error;
  const std::vector<NodeId> baseline = seeds_on(nullptr, &compact);
  ASSERT_EQ(baseline.size(), 5u);

  // Injected mmap fault: the open is refused, so a keep-going run falls
  // back to the edge-list-loaded in-memory graph — same answer.
  {
    ScopedFaultPlan scoped(OneRule(faultsite::kGraphFileMap, /*hit=*/1,
                                   /*fires=*/1));
    CompactGraph faulted;
    EXPECT_EQ(CompactGraph::Open(path, &faulted, &error),
              SealedStatus::kIoError);
    EXPECT_EQ(seeds_on(&base, nullptr), baseline);
  }

  // Torn file on disk (no injector): refused before any query runs, and
  // the same degradation path again serves the identical answer.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const size_t size = static_cast<size_t>(std::ftell(f));
    std::fseek(f, 0, SEEK_SET);
    std::vector<char> bytes(size);
    ASSERT_EQ(std::fread(bytes.data(), 1, size, f), size);
    std::fclose(f);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, size / 2, f), size / 2);
    std::fclose(f);
    CompactGraph torn;
    EXPECT_NE(CompactGraph::Open(path, &torn, &error), SealedStatus::kOk);
    EXPECT_EQ(seeds_on(&base, nullptr), baseline);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imbench
