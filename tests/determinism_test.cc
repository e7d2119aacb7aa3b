// The RR sampler's core contract: thread-count invariance.
// RR corpora, seed sets and spread estimates must be bit-identical for
// threads in {1, 2, 8}, and budget trips must stop promptly with the right
// StopReason while still returning a deterministic prefix.
//
// Tests inject private ThreadPool instances (threads - 1 workers) so real
// concurrency runs even on single-core machines, where the shared pool has
// zero workers and everything would silently degrade to inline execution.
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algorithms/imm.h"
#include "algorithms/ris.h"
#include "algorithms/tim_plus.h"
#include "common/thread_pool.h"
#include "diffusion/rr_sets.h"
#include "framework/datasets.h"
#include "framework/fault.h"
#include "framework/registry.h"
#include "framework/run_guard.h"
#include "framework/sealed_file.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "graph/weights.h"

namespace imbench {
namespace {

Graph WcGraph() {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  return g;
}

std::vector<std::vector<NodeId>> CorpusOf(const RrCollection& c) {
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    const auto span = c.Set(i);
    sets.emplace_back(span.begin(), span.end());
  }
  return sets;
}

TEST(SamplingDeterminismTest, CorpusBitIdenticalAcrossThreadCounts) {
  const Graph g = WcGraph();
  constexpr uint64_t kSets = 700;  // not a multiple of the batch size
  constexpr uint64_t kSeed = 42;

  SamplerOptions sequential_options;
  RrSampler sequential(g, sequential_options);
  RrCollection reference(g.num_nodes());
  std::vector<uint64_t> reference_widths;
  const RrBatchResult ref_result =
      sequential.Generate(kSeed, kSets, reference, &reference_widths);
  ASSERT_EQ(ref_result.generated, kSets);
  ASSERT_EQ(ref_result.stop, StopReason::kNone);
  const auto reference_corpus = CorpusOf(reference);

  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    SamplerOptions options;
    options.threads = threads;
    options.pool = &pool;
    RrSampler sampler(g, options);
    RrCollection corpus(g.num_nodes());
    std::vector<uint64_t> widths;
    const RrBatchResult result =
        sampler.Generate(kSeed, kSets, corpus, &widths);
    EXPECT_EQ(result.generated, kSets) << threads;
    EXPECT_EQ(result.stop, StopReason::kNone) << threads;
    EXPECT_EQ(CorpusOf(corpus), reference_corpus) << threads;
    EXPECT_EQ(widths, reference_widths) << threads;
  }
}

TEST(SamplingDeterminismTest, SplitCallsMatchOneCall) {
  // The sampler keeps a global stream cursor, so Generate(300) + Generate(400)
  // must produce the same corpus as one Generate(700).
  const Graph g = WcGraph();
  SamplerOptions options;
  RrSampler one_call(g, options);
  RrCollection whole(g.num_nodes());
  one_call.Generate(9, 700, whole, nullptr);

  ThreadPool pool(3);
  options.threads = 4;
  options.pool = &pool;
  RrSampler sampler(g, options);
  RrCollection split(g.num_nodes());
  sampler.Generate(9, 300, split, nullptr);
  sampler.Generate(9, 400, split, nullptr);
  EXPECT_EQ(CorpusOf(split), CorpusOf(whole));
}

TEST(SamplingDeterminismTest, EntryCapTripsIdenticallyAcrossThreads) {
  // The kMemory safety valve is checked in the single-threaded merge, so
  // the truncated corpus must also be thread-count invariant.
  const Graph g = WcGraph();
  SamplerOptions options;
  options.max_total_entries = 500;
  RrSampler sequential(g, options);
  RrCollection reference(g.num_nodes());
  const RrBatchResult ref_result =
      sequential.Generate(7, 100000, reference, nullptr);
  ASSERT_EQ(ref_result.stop, StopReason::kMemory);
  ASSERT_GT(reference.size(), 0u);

  ThreadPool pool(7);
  options.threads = 8;
  options.pool = &pool;
  RrSampler sampler(g, options);
  RrCollection corpus(g.num_nodes());
  const RrBatchResult result = sampler.Generate(7, 100000, corpus, nullptr);
  EXPECT_EQ(result.stop, StopReason::kMemory);
  EXPECT_EQ(CorpusOf(corpus), CorpusOf(reference));
}

TEST(SamplingDeterminismTest, GuardTripStopsPromptlyWithPrefixCorpus) {
  // An already-expired deadline: the sampler must drain its lanes,
  // report kDeadline, and whatever it did append must be a prefix of the
  // deterministic sequence.
  const Graph g = WcGraph();
  RunBudget budget;
  budget.deadline_seconds = 0.0;
  RunGuard guard(budget);

  ThreadPool pool(3);
  SamplerOptions options;
  options.guard = &guard;
  options.threads = 4;
  options.pool = &pool;
  RrSampler sampler(g, options);
  RrCollection corpus(g.num_nodes());
  const RrBatchResult result = sampler.Generate(5, 100000, corpus, nullptr);
  EXPECT_EQ(result.stop, StopReason::kDeadline);
  EXPECT_TRUE(guard.stopped());  // Propagate() reached the parent guard
  EXPECT_LT(result.generated, 100000u);  // stopped long before the target

  RrSampler sequential(g, DiffusionKind::kIndependentCascade);
  std::vector<NodeId> expected;
  for (size_t i = 0; i < corpus.size(); ++i) {
    sequential.GenerateStream(5, i, expected);
    const auto actual = corpus.Set(i);
    ASSERT_EQ(std::vector<NodeId>(actual.begin(), actual.end()), expected)
        << i;
  }
}

TEST(SamplingDeterminismTest, CancelFlagDrainsParallelGeneration) {
  const Graph g = WcGraph();
  std::atomic<bool> cancel{true};
  RunBudget budget;
  budget.cancel = &cancel;
  RunGuard guard(budget);

  ThreadPool pool(3);
  SamplerOptions options;
  options.guard = &guard;
  options.threads = 4;
  options.pool = &pool;
  RrSampler sampler(g, options);
  RrCollection corpus(g.num_nodes());
  const RrBatchResult result = sampler.Generate(5, 100000, corpus, nullptr);
  EXPECT_EQ(result.stop, StopReason::kCancelled);
  EXPECT_LT(result.generated, 100000u);
}

template <typename Algorithm>
std::vector<NodeId> SeedsWithThreads(const Graph& g, uint32_t threads,
                                     ThreadPool* pool) {
  Algorithm algorithm({});
  SelectionInput input;
  input.graph = &g;
  input.diffusion = DiffusionKind::kIndependentCascade;
  input.k = 8;
  input.seed = 3;
  input.threads = threads;
  input.pool = pool;
  return algorithm.Select(input).seeds;
}

// --- Backend differential: the mmap'd CompactGraph must be a drop-in
// replacement for the heap CSR — corpora and seed sets bit-identical for
// every thread count, per the PR 3 determinism contract.

// A select's seeds and the trace counters it bumped. The two counters
// that measure the backend itself (blocks decoded, bytes mapped) are
// zeroed: they are the only ones allowed to differ.
struct BackendSelection {
  std::vector<NodeId> seeds;
  TraceCounterArray counters{};
};

class BackendDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = WcGraph();
    // One file per test: ctest runs every test as its own process, in
    // parallel.
    path_ = ::testing::TempDir() + "/backend_diff_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".imgrf";
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph_, WeightModel::kWc, path_, &error))
        << error;
    ASSERT_EQ(CompactGraph::Open(path_, &compact_, &error),
              SealedStatus::kOk)
        << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Selects 3 seeds with the cheapest value of the technique's spectrum,
  // so the sanitizer legs stay fast.
  static BackendSelection Select(const AlgorithmSpec& spec,
                                 const QueryContext& backend,
                                 uint32_t threads, ThreadPool* pool) {
    const std::unique_ptr<ImAlgorithm> algorithm = spec.make(
        spec.HasParameter() ? spec.parameter_spectrum.back()
                            : kDefaultParameter);
    Trace trace;
    SelectionInput input;
    static_cast<QueryContext&>(input) = backend;
    input.k = 3;
    input.seed = 3;
    input.threads = threads;
    input.pool = pool;
    input.trace = &trace;
    BackendSelection out{algorithm->Select(input).seeds, trace.totals()};
    for (const TraceCounter backend_counter :
         {TraceCounter::kNeighborBlocksDecoded,
          TraceCounter::kGraphBytesMapped}) {
      out.counters[static_cast<int>(backend_counter)] = 0;
    }
    return out;
  }

  // k = 8 at the technique's default options, on the WC fixture.
  template <typename Algorithm>
  std::vector<NodeId> Seeds(bool use_compact, uint32_t threads,
                            ThreadPool* pool) {
    Algorithm algorithm({});
    SelectionInput input;
    if (use_compact) {
      input.compact = &compact_;
    } else {
      input.graph = &graph_;
    }
    input.diffusion = DiffusionKind::kIndependentCascade;
    input.k = 8;
    input.seed = 3;
    input.threads = threads;
    input.pool = pool;
    return algorithm.Select(input).seeds;
  }

  Graph graph_;
  CompactGraph compact_;
  std::string path_;
};

TEST_F(BackendDifferentialTest, SequentialCorpusIdenticalAcrossBackends) {
  SamplerOptions options;
  RrSampler on_memory(graph_, options);
  RrCollection memory_corpus(graph_.num_nodes());
  std::vector<uint64_t> memory_widths;
  on_memory.Generate(42, 700, memory_corpus, &memory_widths);

  RrSampler on_compact(compact_, options);
  RrCollection compact_corpus(compact_.num_nodes());
  std::vector<uint64_t> compact_widths;
  on_compact.Generate(42, 700, compact_corpus, &compact_widths);

  EXPECT_EQ(CorpusOf(compact_corpus), CorpusOf(memory_corpus));
  EXPECT_EQ(compact_widths, memory_widths);
}

TEST_F(BackendDifferentialTest, LtCorpusIdenticalAcrossBackends) {
  Graph lt_graph = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(lt_graph);
  const std::string lt_path = ::testing::TempDir() + "/backend_lt.imgrf";
  std::string error;
  ASSERT_TRUE(
      WriteGraphFile(lt_graph, WeightModel::kLtUniform, lt_path, &error));
  CompactGraph lt_compact;
  ASSERT_EQ(CompactGraph::Open(lt_path, &lt_compact, &error),
            SealedStatus::kOk);

  SamplerOptions options;
  options.kind = DiffusionKind::kLinearThreshold;
  RrSampler on_memory(lt_graph, options);
  RrCollection memory_corpus(lt_graph.num_nodes());
  on_memory.Generate(11, 400, memory_corpus, nullptr);
  RrSampler on_compact(lt_compact, options);
  RrCollection compact_corpus(lt_compact.num_nodes());
  on_compact.Generate(11, 400, compact_corpus, nullptr);
  EXPECT_EQ(CorpusOf(compact_corpus), CorpusOf(memory_corpus));
  std::remove(lt_path.c_str());
}

// Every registered technique selects the same seeds, with the same trace
// counters, on its .imgrf twin at any thread count as on the heap CSR.
// IC-family techniques run on the WC fixture, LT ones on an LT-uniform
// twin of the same graph. The RR-set techniques are also pinned at k = 8
// and their default ε, where the corpora are large enough to split across
// every worker.
TEST_F(BackendDifferentialTest, SeedsIdenticalAcrossBackendsAndThreads) {
  const std::vector<NodeId> tim = Seeds<TimPlus>(false, 1, nullptr);
  const std::vector<NodeId> imm = Seeds<Imm>(false, 1, nullptr);
  const std::vector<NodeId> ris = Seeds<Ris>(false, 1, nullptr);
  for (const uint32_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads - 1);
    ThreadPool* p = threads == 1 ? nullptr : &pool;
    EXPECT_EQ(Seeds<TimPlus>(true, threads, p), tim) << threads;
    EXPECT_EQ(Seeds<Imm>(true, threads, p), imm) << threads;
    EXPECT_EQ(Seeds<Ris>(true, threads, p), ris) << threads;
  }

  Graph lt_graph = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(lt_graph);
  const std::string lt_path = path_ + ".lt";
  std::string error;
  ASSERT_TRUE(
      WriteGraphFile(lt_graph, WeightModel::kLtUniform, lt_path, &error))
      << error;
  CompactGraph lt_compact;
  ASSERT_EQ(CompactGraph::Open(lt_path, &lt_compact, &error),
            SealedStatus::kOk)
      << error;
  std::remove(lt_path.c_str());  // the mapping outlives the name

  ThreadPool pool2(1);
  ThreadPool pool8(7);
  const std::pair<uint32_t, ThreadPool*> fanouts[] = {
      {1u, nullptr}, {2u, &pool2}, {8u, &pool8}};
  for (const AlgorithmSpec& spec : AlgorithmRegistry()) {
    for (const DiffusionKind kind : {DiffusionKind::kIndependentCascade,
                                     DiffusionKind::kLinearThreshold}) {
      if (!spec.Supports(kind)) continue;
      const bool ic = kind == DiffusionKind::kIndependentCascade;
      QueryContext heap;
      heap.graph = ic ? &graph_ : &lt_graph;
      heap.diffusion = kind;
      QueryContext mapped;
      mapped.compact = ic ? &compact_ : &lt_compact;
      mapped.diffusion = kind;

      const BackendSelection reference = Select(spec, heap, 1, nullptr);
      ASSERT_EQ(reference.seeds.size(), 3u) << spec.name;
      for (const auto& [threads, pool] : fanouts) {
        const BackendSelection run = Select(spec, mapped, threads, pool);
        EXPECT_EQ(run.seeds, reference.seeds)
            << spec.name << " " << DiffusionKindName(kind) << " " << threads;
        EXPECT_EQ(run.counters, reference.counters)
            << spec.name << " " << DiffusionKindName(kind) << " " << threads;
      }
    }
  }
}

TEST(SamplingDeterminismTest, TimPlusSeedsInvariantUnderThreads) {
  const Graph g = WcGraph();
  const std::vector<NodeId> reference =
      SeedsWithThreads<TimPlus>(g, 1, nullptr);
  ASSERT_EQ(reference.size(), 8u);
  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    EXPECT_EQ(SeedsWithThreads<TimPlus>(g, threads, &pool), reference)
        << threads;
  }
}

TEST(SamplingDeterminismTest, ImmSeedsInvariantUnderThreads) {
  const Graph g = WcGraph();
  const std::vector<NodeId> reference = SeedsWithThreads<Imm>(g, 1, nullptr);
  ASSERT_EQ(reference.size(), 8u);
  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    EXPECT_EQ(SeedsWithThreads<Imm>(g, threads, &pool), reference) << threads;
  }
}

TEST(SamplingDeterminismTest, RisSeedsInvariantUnderThreads) {
  const Graph g = WcGraph();
  const std::vector<NodeId> reference = SeedsWithThreads<Ris>(g, 1, nullptr);
  ASSERT_EQ(reference.size(), 8u);
  for (const uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads - 1);
    EXPECT_EQ(SeedsWithThreads<Ris>(g, threads, &pool), reference) << threads;
  }
}

TEST(SamplingDeterminismTest, LtCorpusInvariantUnderThreads) {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignLtUniform(g);
  SamplerOptions options;
  options.kind = DiffusionKind::kLinearThreshold;
  RrSampler sequential(g, options);
  RrCollection reference(g.num_nodes());
  sequential.Generate(11, 400, reference, nullptr);

  ThreadPool pool(7);
  options.threads = 8;
  options.pool = &pool;
  RrSampler sampler(g, options);
  RrCollection corpus(g.num_nodes());
  sampler.Generate(11, 400, corpus, nullptr);
  EXPECT_EQ(CorpusOf(corpus), CorpusOf(reference));
}

// --- Lookahead boundaries: the range producer draws the next
// RrSampler::kLookahead sets' generators and roots ahead of sampling them.
// Every set must stay the pure function of (seed, index) it was before,
// wherever a call, a stop or a fault cuts the ring.

// Order-sensitive FNV-1a over a corpus' two forward arenas.
uint64_t ArenaDigest(const RrCollection& c) {
  const auto members = c.MembersArena();
  const auto offsets = c.OffsetsArena();
  const uint64_t h = Fnv1a(members.data(), members.size_bytes());
  return Fnv1a(offsets.data(), offsets.size_bytes(), h);
}

Graph BaGraph(NodeId nodes, uint32_t attach, DiffusionKind kind) {
  Rng rng(19);
  EdgeList list = BarabasiAlbert(nodes, attach, rng);
  Graph g = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  if (kind == DiffusionKind::kIndependentCascade) {
    AssignWeightedCascade(g);
  } else {
    AssignLtUniform(g);
  }
  return g;
}

// (diffusion kind, use the .imgrf backend)
class LookaheadBoundaryTest
    : public ::testing::TestWithParam<std::tuple<DiffusionKind, bool>> {
 protected:
  void SetUp() override {
    kind_ = std::get<0>(GetParam());
    graph_ = BaGraph(3000, 4, kind_);
    const bool ic = kind_ == DiffusionKind::kIndependentCascade;
    // One file per test: ctest runs every instance as its own process, in
    // parallel.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + "/lookahead_" + name + ".imgrf";
    std::string error;
    ASSERT_TRUE(WriteGraphFile(
        graph_, ic ? WeightModel::kWc : WeightModel::kLtUniform, path_,
        &error))
        << error;
    ASSERT_EQ(CompactGraph::Open(path_, &compact_, &error),
              SealedStatus::kOk)
        << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  bool compact() const { return std::get<1>(GetParam()); }
  GraphView View() const {
    return compact() ? GraphView(compact_) : GraphView(graph_);
  }
  SamplerOptions Options(uint32_t threads = 1,
                         ThreadPool* pool = nullptr) const {
    SamplerOptions options;
    options.kind = kind_;
    options.threads = threads;
    options.pool = pool;
    return options;
  }
  // The fault-free corpus of the first `count` sets under `seed`.
  RrCollection Reference(uint64_t seed, uint64_t count,
                         std::vector<uint64_t>* widths = nullptr) const {
    RrSampler sampler(View(), Options());
    RrCollection corpus(graph_.num_nodes());
    EXPECT_EQ(sampler.Generate(seed, count, corpus, widths).generated, count);
    return corpus;
  }
  // Every set of `corpus` is the one GenerateStream draws for its index.
  void ExpectStreamPrefix(const RrCollection& corpus, uint64_t seed) const {
    RrSampler single(View(), kind_);
    std::vector<NodeId> expected;
    for (size_t i = 0; i < corpus.size(); ++i) {
      single.GenerateStream(seed, i, expected);
      const auto actual = corpus.Set(i);
      ASSERT_EQ(std::vector<NodeId>(actual.begin(), actual.end()), expected)
          << i;
    }
  }

  DiffusionKind kind_ = DiffusionKind::kIndependentCascade;
  Graph graph_;
  CompactGraph compact_;
  std::string path_;
};

TEST_P(LookaheadBoundaryTest, SplitCallsAtRingBoundariesMatchOneCall) {
  constexpr uint64_t kL = RrSampler::kLookahead;
  const std::vector<uint64_t> counts = {1, kL - 1, kL, kL + 1, 3 * kL + 5};
  uint64_t total = 0;
  for (const uint64_t count : counts) total += count;

  std::vector<uint64_t> whole_widths;
  const RrCollection whole = Reference(31, total, &whole_widths);
  ExpectStreamPrefix(whole, 31);

  RrSampler sampler(View(), Options());
  RrCollection split(graph_.num_nodes());
  std::vector<uint64_t> split_widths;
  for (const uint64_t count : counts) {
    ASSERT_EQ(sampler.Generate(31, count, split, &split_widths).generated,
              count);
  }
  EXPECT_TRUE(std::ranges::equal(split.MembersArena(), whole.MembersArena()));
  EXPECT_TRUE(std::ranges::equal(split.OffsetsArena(), whole.OffsetsArena()));
  EXPECT_EQ(split_widths, whole_widths);
}

TEST_P(LookaheadBoundaryTest, GuardTripMidRunLeavesPrefix) {
  constexpr uint64_t kSets = 2'000'000;  // far more than 5 ms of work
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ThreadPool pool(threads - 1);
    RunBudget budget;
    budget.deadline_seconds = 0.005;
    RunGuard guard(budget);
    SamplerOptions options = Options(threads, &pool);
    options.guard = &guard;
    RrSampler sampler(View(), options);
    RrCollection corpus(graph_.num_nodes());
    const RrBatchResult result = sampler.Generate(8, kSets, corpus, nullptr);
    EXPECT_EQ(result.stop, StopReason::kDeadline);
    EXPECT_LT(result.generated, kSets);
    EXPECT_EQ(corpus.size(), result.generated);
    ExpectStreamPrefix(corpus, 8);
  }
}

TEST_P(LookaheadBoundaryTest, AbortFlagLeavesPrefix) {
  // A cancel raised from another thread mid-run drains every lane through
  // the sampler's internal abort flag.
  constexpr uint64_t kSets = 2'000'000;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ThreadPool pool(threads - 1);
    std::atomic<bool> cancel{false};
    RunBudget budget;
    budget.cancel = &cancel;
    RunGuard guard(budget);
    SamplerOptions options = Options(threads, &pool);
    options.guard = &guard;
    RrSampler sampler(View(), options);
    RrCollection corpus(graph_.num_nodes());
    std::thread raiser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      cancel.store(true);
    });
    const RrBatchResult result = sampler.Generate(8, kSets, corpus, nullptr);
    raiser.join();
    EXPECT_EQ(result.stop, StopReason::kCancelled);
    EXPECT_LT(result.generated, kSets);
    EXPECT_EQ(corpus.size(), result.generated);
    ExpectStreamPrefix(corpus, 8);
  }
}

TEST_P(LookaheadBoundaryTest, ArenaFaultKeepsCursorAndRetryMatches) {
  // Hit h (1-based) of the per-set merge fault site fires on set h - 1:
  // sets 0..h-2 are kept and the cursor stays on h - 1, even though the
  // ring (and, with several lanes, the wave) has already drawn the sets
  // after it. The merge runs in index order, so every lane count agrees.
  constexpr uint64_t kL = RrSampler::kLookahead;
  constexpr uint64_t kHit = 2 * kL + 3;
  constexpr uint64_t kSets = 5 * kL;
  const RrCollection reference = Reference(17, kSets);

  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    ThreadPool pool(threads - 1);
    RrSampler sampler(View(), Options(threads, &pool));
    RrCollection corpus(graph_.num_nodes());
    {
      FaultPlan plan;
      FaultRule rule;
      rule.site = std::string(faultsite::kRrArenaGrow);
      rule.fire_on_hit = kHit;
      plan.rules.push_back(rule);
      ScopedFaultPlan scoped(std::move(plan));
      const RrBatchResult faulted =
          sampler.Generate(17, kSets, corpus, nullptr);
      EXPECT_EQ(faulted.stop, StopReason::kFault);
      EXPECT_EQ(faulted.generated, kHit - 1);
    }
    const RrBatchResult retry =
        sampler.Generate(17, kSets - corpus.size(), corpus, nullptr);
    EXPECT_EQ(retry.stop, StopReason::kNone);
    EXPECT_EQ(ArenaDigest(corpus), ArenaDigest(reference));
  }
}

TEST_P(LookaheadBoundaryTest, CountersAndCapCrossingInvariantUnderThreads) {
  // Per-set widths and decode counts are summed over the merged prefix
  // only, so both trace counters — and an entry-cap crossing — are the
  // same for every lane count. Decodes are counted on .imgrf (non-zero)
  // and absent on the heap CSR.
  for (const uint64_t cap : {uint64_t{0}, uint64_t{1500}}) {
    uint64_t digest = 0;
    uint64_t edges = 0;
    uint64_t blocks = 0;
    std::vector<uint64_t> reference_widths;
    for (const uint32_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads - 1);
      SamplerOptions options = Options();
      options.max_total_entries = cap;
      options.threads = threads;
      options.pool = &pool;
      Trace trace;
      options.trace = &trace;
      RrSampler sampler(View(), options);
      RrCollection corpus(graph_.num_nodes());
      std::vector<uint64_t> widths;
      const RrBatchResult result = sampler.Generate(23, 700, corpus, &widths);
      EXPECT_EQ(result.stop,
                cap == 0 ? StopReason::kNone : StopReason::kMemory)
          << threads;
      if (cap != 0) {
        EXPECT_GT(corpus.TotalEntries(), cap);
        EXPECT_LE(corpus.TotalEntries() - corpus.Set(corpus.size() - 1).size(),
                  cap);
      }
      const uint64_t trace_blocks =
          trace.Total(TraceCounter::kNeighborBlocksDecoded);
      if (compact()) {
        EXPECT_GT(trace_blocks, 0u) << threads;
      } else {
        EXPECT_EQ(trace_blocks, 0u) << threads;
      }
      if (threads == 1) {
        digest = ArenaDigest(corpus);
        edges = trace.Total(TraceCounter::kRrEdgesExamined);
        blocks = trace_blocks;
        reference_widths = widths;
        ExpectStreamPrefix(corpus, 23);
        continue;
      }
      EXPECT_EQ(ArenaDigest(corpus), digest) << threads << " cap " << cap;
      EXPECT_EQ(widths, reference_widths) << threads << " cap " << cap;
      EXPECT_EQ(trace.Total(TraceCounter::kRrEdgesExamined), edges)
          << threads << " cap " << cap;
      EXPECT_EQ(trace_blocks, blocks) << threads << " cap " << cap;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndBackends, LookaheadBoundaryTest,
    ::testing::Combine(::testing::Values(DiffusionKind::kIndependentCascade,
                                         DiffusionKind::kLinearThreshold),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ==
                                 DiffusionKind::kIndependentCascade
                             ? "IC"
                             : "LT") +
             (std::get<1>(info.param) ? "_imgrf" : "_heap");
    });

// Corpus digests recorded before the lookahead producer existed: 100K sets
// on a BA graph must stay byte-identical, for IC and for LT.
TEST(SamplingDeterminismTest, PinnedBaCorpusDigests) {
  for (const auto& [kind, expected] :
       {std::pair{DiffusionKind::kIndependentCascade, 0x13b9fadb95b8bc33ULL},
        std::pair{DiffusionKind::kLinearThreshold, 0xd074575c116931c1ULL}}) {
    const Graph g = BaGraph(20000, 5, kind);
    SamplerOptions options;
    options.kind = kind;
    RrSampler sampler(g, options);
    RrCollection corpus(g.num_nodes());
    ASSERT_EQ(sampler.Generate(2024, 100000, corpus, nullptr).generated,
              100000u);
    EXPECT_EQ(ArenaDigest(corpus), expected)
        << (kind == DiffusionKind::kIndependentCascade ? "IC" : "LT");
  }
}

TEST(RrCollectionTest, TruncateToUnwindsInvertedIndex) {
  RrCollection c(5);
  c.Add({0, 1});
  c.Add({1, 2, 3});
  c.Add({3, 4});
  ASSERT_EQ(c.size(), 3u);
  ASSERT_EQ(c.TotalEntries(), 7u);
  c.TruncateTo(1);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.TotalEntries(), 2u);
  // Greedy cover over the remaining single set behaves as if the dropped
  // sets never existed: any member of {0,1} covers everything.
  double fraction = 0;
  const std::vector<NodeId> seeds = c.GreedyMaxCover(1, &fraction);
  EXPECT_DOUBLE_EQ(fraction, 1.0);
  EXPECT_TRUE(seeds[0] == 0 || seeds[0] == 1);
}

TEST(RrCollectionTest, MemoryBytesCountsArenasAndInvertedIndex) {
  // Flat-arena accounting (the Fig. 8 metric), exact: each arena counts its
  // page-rounded mapping from the first byte it holds. An empty corpus maps
  // only the offsets arena's leading 0 — no per-node or per-set vector
  // headers — and the CSR inverted index only materializes (and starts
  // being counted) when the first GreedyMaxCover builds it.
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  RrCollection c(1000);
  EXPECT_EQ(c.MemoryBytes(), page + sizeof(RrCollection));
  c.Add({1, 2, 3, 4, 5});
  EXPECT_EQ(c.MemoryBytes(), 2 * page + sizeof(RrCollection));
  c.GreedyMaxCover(1);
  // Index: 1001 per-node offsets plus one page holding the 5 set ids.
  EXPECT_EQ(c.MemoryBytes(),
            3 * page + 1001 * sizeof(uint64_t) + sizeof(RrCollection));
}

}  // namespace
}  // namespace imbench
