// The always-on query service's correctness contract: after any sequence
// of queries and store mutations, the seeds a warm service serves are
// byte-identical to a cold rebuild on the post-mutation snapshot at the
// same sampler seed — for every thread count and supported weight model.
#include "service/im_service.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/trace.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"
#include "service/workload.h"
#include "tests/test_util.h"

namespace imbench {
namespace {

constexpr uint64_t kSeed = 29;

// Cold reference: sample θ(n, k, ε) sets from scratch on `graph` and cover
// them — what a one-shot run would serve. Sequential; the engines are
// thread-count invariant, so one reference suffices for every service
// thread count.
std::vector<NodeId> ColdSeeds(const Graph& graph, DiffusionKind kind,
                              uint32_t k, double epsilon,
                              RrCollection* corpus_out = nullptr) {
  const uint64_t required =
      ImService::RequiredSets(graph.num_nodes(), k, epsilon);
  SamplerOptions options;
  options.kind = kind;
  RrSampler engine(graph, options);
  RrCollection corpus(graph.num_nodes());
  engine.Generate(kSeed, required, corpus);
  std::vector<NodeId> seeds =
      corpus.GreedyMaxCoverPrefix(k, static_cast<size_t>(required));
  if (corpus_out != nullptr) *corpus_out = std::move(corpus);
  return seeds;
}

// First (source, target) pair absent from the graph, for AddEdges.
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

// First existing edge, for UpdateWeights.
WeightedArc ExistingArc(const Graph& graph, double weight) {
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto targets = graph.OutTargets(u);
    if (!targets.empty()) return WeightedArc{u, targets[0], weight};
  }
  ADD_FAILURE() << "graph has no edges";
  return WeightedArc{};
}

Graph ServiceTestGraph(DiffusionKind kind) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  if (kind == DiffusionKind::kIndependentCascade) {
    AssignWeightedCascade(g);
  } else {
    AssignLtUniform(g);
  }
  return g;
}

// The tentpole differential: a query/mutation interleaving served warm
// must match cold rebuilds at every step, across thread counts and both
// diffusion/weight models.
TEST(ServiceTest, MutationSequenceMatchesColdRebuild) {
  for (const DiffusionKind kind : {DiffusionKind::kIndependentCascade,
                                   DiffusionKind::kLinearThreshold}) {
    for (const uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message() << DiffusionKindName(kind) << " threads "
                                      << threads);
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);

      EpochGraphStore store(ServiceTestGraph(kind));
      ServiceOptions options;
      options.kind = kind;
      options.epsilon = 4.0;
      options.seed = kSeed;
      options.threads = threads;
      options.pool = pool.get();
      ImService service(store, options);

      auto check_query = [&](uint32_t k, double eps) {
        ImQuery query;
        query.k = k;
        query.epsilon = eps;
        const ImQueryResult result = service.Query(query);
        EXPECT_TRUE(result.complete());
        EXPECT_EQ(result.epoch, store.epoch());
        const double epsilon = eps > 0 ? eps : options.epsilon;
        EXPECT_EQ(result.seeds,
                  ColdSeeds(*store.Current().graph, kind, k, epsilon));
        return result;
      };

      check_query(4, 0);
      // Mutate: one brand-new edge, then re-query at two sizes.
      store.AddEdges({{MissingArc(*store.Current().graph, 0.4)}});
      check_query(4, 0);
      check_query(6, 0);
      // Mutate again: weight update on an existing edge, tighter ε.
      store.UpdateWeights({{ExistingArc(*store.Current().graph, 0.05)}});
      check_query(3, 3.0);
    }
  }
}

// Three k values served in turn across an add, an update and another add.
// θ falls as k grows, so after the first query each k covers a prefix of
// the warm corpus; the repair after each mutation must patch the cached
// prefix degrees of all three, which the repeats then read.
TEST(ServiceTest, AlternatingPrefixCoversAcrossMutationsMatchColdRebuild) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads - 1);

    EpochGraphStore store(ServiceTestGraph(kind));
    ServiceOptions options;
    options.kind = kind;
    options.epsilon = 4.0;
    options.seed = kSeed;
    options.threads = threads;
    options.pool = pool.get();
    ImService service(store, options);

    // After a mutation the first query repairs the corpus.
    auto serve_all = [&](const char* step, bool repairs) {
      SCOPED_TRACE(step);
      for (const uint32_t k : {3u, 6u, 9u}) {
        ImQuery query;
        query.k = k;
        const ImQueryResult result = service.Query(query);
        EXPECT_TRUE(result.complete());
        EXPECT_EQ(result.sets_sampled, 0u) << "k=" << k;
        EXPECT_EQ(result.sets_repaired > 0, repairs && k == 3) << "k=" << k;
        EXPECT_EQ(result.seeds, ColdSeeds(*store.Current().graph, kind, k,
                                          options.epsilon))
            << "k=" << k;
      }
    };

    ImQuery first;
    first.k = 3;
    ASSERT_TRUE(service.Query(first).complete());
    ASSERT_LT(ImService::RequiredSets(store.Current().graph->num_nodes(), 9,
                                      options.epsilon),
              service.corpus().size());
    serve_all("warm", false);
    store.AddEdges({{MissingArc(*store.Current().graph, 0.4)}});
    serve_all("after an add", true);
    store.UpdateWeights({{ExistingArc(*store.Current().graph, 0.05)}});
    serve_all("after an update", true);
    store.AddEdges({{MissingArc(*store.Current().graph, 0.3)}});
    serve_all("after a second add", true);
  }
}

// The warm corpus is the cold corpus: after repair, the arena prefix a
// query covers is set-for-set identical to a from-scratch corpus on the
// current snapshot.
TEST(ServiceTest, RepairedCorpusMatchesColdCorpusSetForSet) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  EpochGraphStore store(ServiceTestGraph(kind));
  ServiceOptions options;
  options.kind = kind;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  ImQuery query;
  query.k = 5;
  service.Query(query);
  store.AddEdges({{MissingArc(*store.Current().graph, 0.6)}});
  const ImQueryResult warm = service.Query(query);
  EXPECT_GT(warm.sets_repaired, 0u);

  RrCollection cold(0);
  ColdSeeds(*store.Current().graph, kind, query.k, options.epsilon, &cold);
  ASSERT_LE(cold.size(), service.corpus().size());
  for (size_t i = 0; i < cold.size(); ++i) {
    ASSERT_EQ(std::vector<NodeId>(cold.Set(i).begin(), cold.Set(i).end()),
              std::vector<NodeId>(service.corpus().Set(i).begin(),
                                  service.corpus().Set(i).end()))
        << "set " << i;
  }
}

// Warm reuse: θ shrinks as k grows (λ is divided by k), so a repeat query
// with larger k must be answered entirely from the warm corpus.
TEST(ServiceTest, WarmRepeatQueryResamplesNothing) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  ImQuery first;
  first.k = 5;
  const ImQueryResult a = service.Query(first);
  EXPECT_GT(a.sets_sampled, 0u);
  EXPECT_EQ(a.sets_reused, 0u);

  ImQuery second;
  second.k = 10;
  const ImQueryResult b = service.Query(second);
  EXPECT_EQ(b.sets_sampled, 0u);
  EXPECT_GT(b.sets_reused, 0u);
  EXPECT_LE(b.sets_used, a.sets_used);
}

// Incremental repair beats rebuild: one mutated edge invalidates only the
// sets containing its target, a strict subset of the corpus.
TEST(ServiceTest, SingleEdgeMutationRepairsStrictSubset) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 3.0;
  options.seed = kSeed;
  Trace trace;
  options.trace = &trace;
  ImService service(store, options);

  ImQuery query;
  query.k = 5;
  const ImQueryResult cold_run = service.Query(query);
  const uint64_t corpus_before = service.corpus().size();
  EXPECT_EQ(cold_run.sets_sampled, corpus_before);

  store.UpdateWeights({{ExistingArc(*store.Current().graph, 0.01)}});
  const ImQueryResult warm = service.Query(query);
  EXPECT_GT(warm.sets_repaired, 0u);
  EXPECT_LT(warm.sets_repaired, corpus_before);
  EXPECT_EQ(warm.sets_sampled, 0u);
  EXPECT_GT(warm.sets_reused, 0u);

  EXPECT_EQ(trace.Total(TraceCounter::kRrSetsRepaired), warm.sets_repaired);
  EXPECT_GT(trace.Total(TraceCounter::kRrSetsReused), 0u);
  EXPECT_EQ(trace.Total(TraceCounter::kCorpusEpochs), 1u);
}

// A query whose budget is already spent must not corrupt the corpus: the
// next unbudgeted query still matches a cold rebuild.
TEST(ServiceTest, CancelledQueryLeavesCorpusConsistent) {
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  EpochGraphStore store(ServiceTestGraph(kind));
  ServiceOptions options;
  options.kind = kind;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  ImQuery warmup;
  warmup.k = 4;
  service.Query(warmup);
  store.AddEdges({{MissingArc(*store.Current().graph, 0.5)}});

  std::atomic<bool> cancel{true};
  ImQuery doomed;
  doomed.k = 4;
  doomed.budget.cancel = &cancel;
  const ImQueryResult partial = service.Query(doomed);
  EXPECT_EQ(partial.stop_reason, StopReason::kCancelled);

  ImQuery retry;
  retry.k = 4;
  const ImQueryResult ok = service.Query(retry);
  EXPECT_TRUE(ok.complete());
  EXPECT_EQ(ok.seeds,
            ColdSeeds(*store.Current().graph, kind, 4, options.epsilon));
}

TEST(ServiceTest, RequiredSetsIsDeterministicAndMonotoneInEpsilon) {
  const uint64_t loose = ImService::RequiredSets(1000, 5, 4.0);
  const uint64_t tight = ImService::RequiredSets(1000, 5, 2.0);
  EXPECT_GT(tight, loose);
  EXPECT_EQ(loose, ImService::RequiredSets(1000, 5, 4.0));
  EXPECT_GE(loose, 1u);
}

// --- EpochGraphStore ---

TEST(EpochStoreTest, SnapshotIsolationAcrossMutations) {
  EpochGraphStore store(testutil::TwoStars(0.5));
  const EpochGraphStore::Snapshot before = store.Current();
  const EdgeId edges_before = before.graph->num_edges();

  EXPECT_EQ(store.AddEdges({{WeightedArc{1, 6, 0.7}}}), 1u);
  const EpochGraphStore::Snapshot after = store.Current();

  // The old handle still sees the old topology and weights.
  EXPECT_EQ(before.graph->num_edges(), edges_before);
  EXPECT_EQ(before.graph->FindEdge(1, 6), kInvalidEdge);
  EXPECT_EQ(before.epoch, 0u);

  EXPECT_EQ(after.epoch, 1u);
  const EdgeId added = after.graph->FindEdge(1, 6);
  ASSERT_NE(added, kInvalidEdge);
  EXPECT_DOUBLE_EQ(after.graph->weights()[added], 0.7);
  EXPECT_EQ(after.graph->num_edges(), edges_before + 1);
}

TEST(EpochStoreTest, AddOfExistingEdgeUpdatesWeight) {
  EpochGraphStore store(testutil::TwoStars(0.5));
  const EdgeId before = store.Current().graph->FindEdge(0, 1);
  ASSERT_NE(before, kInvalidEdge);

  store.AddEdges({{WeightedArc{0, 1, 0.9}}});
  const auto snap = store.Current();
  EXPECT_EQ(snap.graph->num_edges(), 5u);  // no duplicate edge
  EXPECT_DOUBLE_EQ(snap.graph->weights()[snap.graph->FindEdge(0, 1)], 0.9);
}

TEST(EpochStoreTest, TouchedSinceAccumulatesTargets) {
  EpochGraphStore store(testutil::TwoStars(0.5));
  store.AddEdges({{WeightedArc{1, 6, 0.7}}});
  store.UpdateWeights({{WeightedArc{0, 2, 0.1}}});

  EXPECT_EQ(store.TouchedSince(0), (std::vector<NodeId>{2, 6}));
  EXPECT_EQ(store.TouchedSince(1), (std::vector<NodeId>{2}));
  EXPECT_TRUE(store.TouchedSince(2).empty());
}

TEST(EpochStoreTest, PreservesParallelArcMultiplicities) {
  // Two parallel arcs 0 -> 1 collapse to one edge with multiplicity 2.
  Graph g = Graph::FromArcs(3, {Arc{0, 1}, Arc{0, 1}, Arc{1, 2}});
  ASSERT_TRUE(g.has_parallel_arcs());
  std::vector<double> w(g.num_edges(), 0.5);
  g.SetWeights(w);

  EpochGraphStore store(std::move(g));
  store.AddEdges({{WeightedArc{2, 0, 0.25}}});
  const auto snap = store.Current();
  EXPECT_EQ(snap.graph->EdgeMultiplicity(snap.graph->FindEdge(0, 1)), 2u);
  EXPECT_EQ(snap.graph->EdgeMultiplicity(snap.graph->FindEdge(2, 0)), 1u);
}

TEST(EpochStoreTest, InvalidMutationIsRefusedOnTheOldEpoch) {
  EpochGraphStore store(testutil::TwoStars(0.5));
  const NodeId n = store.Current().graph->num_nodes();
  uint64_t epoch = 99;
  std::string error;
  using Status = EpochGraphStore::Status;
  EXPECT_EQ(store.TryAddEdges({{WeightedArc{0, n, 0.1}}}, &epoch, &error),
            Status::kInvalid);
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_EQ(store.TryAddEdges(
                {{WeightedArc{1, 6, 0.7}, WeightedArc{3, 3, 0.1}}}, &epoch,
                &error),
            Status::kInvalid);
  EXPECT_NE(error.find("self loop"), std::string::npos) << error;
  EXPECT_EQ(store.TryUpdateWeights({{WeightedArc{1, 6, 0.1}}}, &epoch, &error),
            Status::kInvalid);
  EXPECT_NE(error.find("absent"), std::string::npos) << error;
  // All-or-nothing: the valid arc of the refused call was not applied.
  EXPECT_EQ(epoch, 99u);
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.Current().graph->FindEdge(1, 6), kInvalidEdge);
  EXPECT_EQ(store.TryAddEdges({{WeightedArc{1, 6, 0.7}}}, &epoch),
            Status::kPublished);
  EXPECT_EQ(epoch, 1u);
}

// --- Workload parsing and replay ---

TEST(WorkloadTest, ParsesQueriesAndMutations) {
  std::vector<WorkloadOp> ops;
  std::string error;
  ASSERT_TRUE(ParseWorkload("# warm-up\n"
                            "query k=5 eps=3.5 deadline=2.5\n"
                            "\n"
                            "add 0,1,0.5 1,2,0.25  # two arcs\n"
                            "update 0,1,0.125\n",
                            &ops, &error))
      << error;
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].kind, WorkloadOp::Kind::kQuery);
  EXPECT_EQ(ops[0].query.k, 5u);
  EXPECT_DOUBLE_EQ(ops[0].query.epsilon, 3.5);
  EXPECT_DOUBLE_EQ(ops[0].query.budget.deadline_seconds, 2.5);
  EXPECT_EQ(ops[1].kind, WorkloadOp::Kind::kAddEdges);
  ASSERT_EQ(ops[1].arcs.size(), 2u);
  EXPECT_EQ(ops[1].arcs[1].target, 2u);
  EXPECT_DOUBLE_EQ(ops[1].arcs[1].weight, 0.25);
  EXPECT_EQ(ops[2].kind, WorkloadOp::Kind::kUpdateWeights);
}

TEST(WorkloadTest, RejectsMalformedLines) {
  std::vector<WorkloadOp> ops;
  std::string error;
  EXPECT_FALSE(ParseWorkload("query eps=2.0\n", &ops, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(ParseWorkload("query k=5\nfrobnicate\n", &ops, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  // The offending line itself is quoted in the message.
  EXPECT_NE(error.find("[frobnicate]"), std::string::npos);
  EXPECT_FALSE(ParseWorkload("add 0,1\n", &ops, &error));
  EXPECT_NE(error.find("[add 0,1]"), std::string::npos);
  EXPECT_FALSE(ParseWorkload("query k=5 k5\n", &ops, &error));
}

TEST(WorkloadTest, RejectsOutOfRangeIdsAndNonFiniteWeights) {
  // Each line used to parse: ids wrapped modulo 2^32 (or -1 became
  // 0xFFFFFFFF) and NaN/inf weights were published.
  for (const char* line :
       {"add 4294967297,5,0.1", "add -1,5,0.1", "add 0,4294967295,0.1",
        "add 0,99999999999999999999999,0.1", "add 0,1,nan", "add 0,1,inf",
        "update 0,1,-inf", "add 0,1,", "add 0,,0.1", "add 0,1,0.1,2",
        "add +1,2,0.1", "add 0x1,2,0.1"}) {
    SCOPED_TRACE(line);
    std::vector<WorkloadOp> ops;
    ParseWorkloadLenient(line, &ops);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, WorkloadOp::Kind::kMalformed);
    EXPECT_NE(ops[0].error.find("bad arc"), std::string::npos);
  }
  // The largest id the parser takes; the store judges it against n.
  std::vector<WorkloadOp> ops;
  std::string error;
  ASSERT_TRUE(ParseWorkload("add 4294967294,0,1e-3\n", &ops, &error))
      << error;
  EXPECT_EQ(ops[0].arcs[0].source, 4294967294u);
  EXPECT_DOUBLE_EQ(ops[0].arcs[0].weight, 1e-3);
}

TEST(WorkloadTest, LenientParseKeepsMalformedLinesInOrder) {
  std::vector<WorkloadOp> ops;
  ParseWorkloadLenient(
      "query k=5\nfrobnicate the graph\nadd 0,1,0.5\nadd 0,1\n", &ops);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, WorkloadOp::Kind::kQuery);
  EXPECT_EQ(ops[1].kind, WorkloadOp::Kind::kMalformed);
  EXPECT_EQ(ops[1].line, 2);
  EXPECT_EQ(ops[1].text, "frobnicate the graph");
  EXPECT_NE(ops[1].error.find("unknown op"), std::string::npos);
  EXPECT_EQ(ops[2].kind, WorkloadOp::Kind::kAddEdges);
  EXPECT_EQ(ops[3].kind, WorkloadOp::Kind::kMalformed);
  EXPECT_EQ(ops[3].line, 4);
}

TEST(WorkloadTest, ReplayKeepGoingReportsErrorsAndContinues) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  std::vector<WorkloadOp> ops;
  ParseWorkloadLenient("query k=5\nfrobnicate\nquery k=5\n", &ops);
  ASSERT_EQ(ops.size(), 3u);

  // Strict mode halts at the malformed op: one query served.
  std::string log;
  const ReplayResult strict = ReplayWorkload(store, service, ops, &log);
  EXPECT_EQ(strict.queries.size(), 1u);
  EXPECT_EQ(strict.errors, 1u);

  // keep-going emits the error record and serves the rest.
  ReplayOptions lenient;
  lenient.keep_going = true;
  log.clear();
  const ReplayResult kept =
      ReplayWorkload(store, service, ops, &log, lenient);
  EXPECT_EQ(kept.queries.size(), 2u);
  EXPECT_EQ(kept.errors, 1u);
  EXPECT_NE(log.find("\"op\":\"error\""), std::string::npos);
  EXPECT_NE(log.find("\"line\":2"), std::string::npos);
  EXPECT_NE(log.find("frobnicate"), std::string::npos);
}

TEST(WorkloadTest, InvalidMutationIsAnErrorRecordNotAnAbort) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  std::vector<WorkloadOp> ops;
  std::string error;
  ASSERT_TRUE(ParseWorkload("add 0,99999999,0.1\nadd 3,3,0.1\n"
                            "update 0,0,0.1\nquery k=5\n",
                            &ops, &error))
      << error;

  // Strict mode halts at the first refused mutation, without retrying it.
  std::string log;
  const ReplayResult strict = ReplayWorkload(store, service, ops, &log);
  EXPECT_EQ(strict.errors, 1u);
  EXPECT_EQ(strict.retries, 0u);
  EXPECT_TRUE(strict.queries.empty());
  EXPECT_NE(log.find("\"line\":1"), std::string::npos) << log;
  EXPECT_NE(log.find("invalid mutation"), std::string::npos) << log;

  // keep-going reports all three and serves the query on epoch 0.
  ReplayOptions lenient;
  lenient.keep_going = true;
  log.clear();
  const ReplayResult kept = ReplayWorkload(store, service, ops, &log, lenient);
  EXPECT_EQ(kept.errors, 3u);
  EXPECT_EQ(kept.retries, 0u);
  EXPECT_EQ(kept.mutations, 0u);
  EXPECT_EQ(kept.final_epoch, 0u);
  ASSERT_EQ(kept.queries.size(), 1u);
  EXPECT_EQ(kept.queries[0].epoch, 0u);
  EXPECT_NE(log.find("out of range"), std::string::npos) << log;
  EXPECT_NE(log.find("self loop"), std::string::npos) << log;
  EXPECT_NE(log.find("absent"), std::string::npos) << log;
}

TEST(WorkloadTest, ReplayDrainsOnStopFlag) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  std::vector<WorkloadOp> ops;
  std::string error;
  ASSERT_TRUE(ParseWorkload("query k=5\nquery k=6\n", &ops, &error)) << error;

  std::atomic<bool> stop{true};
  ReplayOptions replay_options;
  replay_options.stop = &stop;
  const ReplayResult drained =
      ReplayWorkload(store, service, ops, nullptr, replay_options);
  EXPECT_TRUE(drained.interrupted);
  EXPECT_TRUE(drained.queries.empty());

  // With the flag clear the same replay runs to completion, and each
  // query's budget carries the flag for graceful mid-query cancellation.
  stop.store(false);
  const ReplayResult full =
      ReplayWorkload(store, service, ops, nullptr, replay_options);
  EXPECT_FALSE(full.interrupted);
  EXPECT_EQ(full.queries.size(), 2u);
}

TEST(WorkloadTest, QueryJsonReportsRetriesAndDegradeMode) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);
  std::vector<WorkloadOp> ops;
  std::string error;
  ASSERT_TRUE(ParseWorkload("query k=5\n", &ops, &error)) << error;
  std::string log;
  ReplayWorkload(store, service, ops, &log);
  EXPECT_NE(log.find("\"retries\":0"), std::string::npos);
  EXPECT_NE(log.find("\"degraded\":\"none\""), std::string::npos);
}

TEST(WorkloadTest, ReplayDrivesStoreAndService) {
  EpochGraphStore store(ServiceTestGraph(DiffusionKind::kIndependentCascade));
  ServiceOptions options;
  options.epsilon = 4.0;
  options.seed = kSeed;
  ImService service(store, options);

  const WeightedArc missing = MissingArc(*store.Current().graph, 0.4);
  const std::string text =
      "query k=5\nadd " + std::to_string(missing.source) + "," +
      std::to_string(missing.target) + ",0.4\nquery k=5\n";
  std::vector<WorkloadOp> ops;
  std::string error;
  ASSERT_TRUE(ParseWorkload(text, &ops, &error)) << error;

  std::string log;
  const ReplayResult replay = ReplayWorkload(store, service, ops, &log);
  ASSERT_EQ(replay.queries.size(), 2u);
  EXPECT_EQ(replay.mutations, 1u);
  EXPECT_EQ(replay.final_epoch, 1u);
  EXPECT_GT(replay.queries[1].sets_repaired, 0u);
  EXPECT_NE(log.find("\"op\":\"query\""), std::string::npos);
  EXPECT_NE(log.find("\"sets_repaired\""), std::string::npos);
  EXPECT_EQ(replay.queries[1].seeds,
            ColdSeeds(*store.Current().graph,
                      DiffusionKind::kIndependentCascade, 5, options.epsilon));
}

}  // namespace
}  // namespace imbench
