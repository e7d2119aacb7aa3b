// CompactGraph / `.imgrf` tests: build → write → mmap roundtrip equality
// against the in-memory Graph for every query on all six weight models,
// streaming-writer equivalence with WriteGraphFile, IMGRF01 bytes pinned by
// golden digests, and the integrity refusals (torn, truncated, foreign,
// other version, injected IO faults). tests/sealed_file_test.cc mutates
// every byte.
#include "graph/compact_graph.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "framework/datasets.h"
#include "framework/fault.h"
#include "framework/sealed_file.h"
#include "framework/trace.h"
#include "graph/graph.h"
#include "graph/graph_file.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "graph/weights.h"

namespace imbench {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  if (f == nullptr) return bytes;
  char buf[1 << 14];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

// A graph with hubs, sinks, isolated nodes, parallel arcs and self loops —
// every structural case the encoder must get right. Degrees straddle the
// 64-neighbor block size so multi-block decode paths run too.
std::vector<Arc> AwkwardArcs(NodeId n) {
  std::vector<Arc> arcs;
  for (NodeId u = 0; u < n; ++u) {
    arcs.push_back(Arc{u, (u + 1) % n});
    arcs.push_back(Arc{u, (u * 7 + 3) % n});
    if (u % 3 == 0) arcs.push_back(Arc{u, (u * 13 + 5) % n});
    if (u % 11 == 0) arcs.push_back(Arc{u, (u + 1) % n});  // parallel arc
    if (u % 17 == 0) arcs.push_back(Arc{u, u});            // self loop
  }
  // One hub with > 2 blocks of out-neighbors and one popular sink.
  for (NodeId v = 1; v < std::min<NodeId>(n, 150); ++v) {
    arcs.push_back(Arc{0, v});
    arcs.push_back(Arc{v, n - 1});
  }
  return arcs;
}

Graph AwkwardGraph(NodeId n, WeightModel model) {
  Graph graph = Graph::FromArcs(n, AwkwardArcs(n));
  Rng rng(0x5eed);
  AssignWeights(graph, model, 0.1, rng);
  return graph;
}

void ExpectSameGraph(const Graph& graph, const CompactGraph& compact) {
  ASSERT_EQ(compact.num_nodes(), graph.num_nodes());
  ASSERT_EQ(compact.num_edges(), graph.num_edges());
  EXPECT_EQ(compact.fingerprint(), GraphFingerprint(graph));
  EXPECT_EQ(compact.has_parallel_arcs(), graph.has_parallel_arcs());

  AdjScratch scratch;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    ASSERT_EQ(compact.OutDegree(u), graph.OutDegree(u)) << "node " << u;
    ASSERT_EQ(compact.InDegree(u), graph.InDegree(u)) << "node " << u;
    ASSERT_EQ(compact.OutEdgeBase(u), graph.OutEdgeBase(u)) << "node " << u;

    const AdjView out = GraphView(compact).Out(u, scratch);
    const auto out_targets = graph.OutTargets(u);
    const auto out_weights = graph.OutWeights(u);
    ASSERT_EQ(out.nodes.size(), out_targets.size()) << "node " << u;
    ASSERT_EQ(out.weights.size(), out_targets.size()) << "node " << u;
    for (size_t i = 0; i < out_targets.size(); ++i) {
      ASSERT_EQ(out.nodes[i], out_targets[i]) << "node " << u;
      // Bit-exact: the weights lane is a raw copy of the double patterns.
      ASSERT_EQ(out.weights[i], out_weights[i]) << "node " << u;
    }

    // decode_edge_ids exercises the gather lane even for models whose
    // weights the decoder synthesizes; the weights must be bit-identical
    // to the stored lane either way.
    compact.DecodeIn(u, scratch, /*decode_weights=*/true,
                     /*decode_edge_ids=*/true);
    const auto in_sources = graph.InSources(u);
    const auto in_weights = graph.InWeights(u);
    const auto in_edge_ids = graph.InEdgeIds(u);
    ASSERT_EQ(scratch.nodes.size(), in_sources.size()) << "node " << u;
    for (size_t i = 0; i < in_sources.size(); ++i) {
      ASSERT_EQ(scratch.nodes[i], in_sources[i]) << "node " << u;
      ASSERT_EQ(scratch.edge_ids[i], in_edge_ids[i]) << "node " << u;
      ASSERT_EQ(scratch.weights[i], in_weights[i]) << "node " << u;
    }
    compact.DecodeIn(u, scratch);  // default path (synthesized for WC/LT/IC)
    for (size_t i = 0; i < in_sources.size(); ++i) {
      ASSERT_EQ(scratch.weights[i], in_weights[i]) << "node " << u;
    }
    ASSERT_DOUBLE_EQ(compact.InWeightSum(u, scratch), graph.InWeightSum(u))
        << "node " << u;
  }
  const auto flat_mem = graph.weights();
  const auto flat_compact = compact.weights();
  ASSERT_EQ(flat_compact.size(), flat_mem.size());
  for (size_t e = 0; e < flat_mem.size(); ++e) {
    ASSERT_EQ(flat_compact[e], flat_mem[e]) << "edge " << e;
    ASSERT_EQ(compact.EdgeMultiplicity(e), graph.EdgeMultiplicity(e))
        << "edge " << e;
  }
}

class CompactGraphModelTest : public ::testing::TestWithParam<WeightModel> {};

TEST_P(CompactGraphModelTest, WriteOpenRoundtripMatchesInMemoryGraph) {
  const Graph graph = AwkwardGraph(400, GetParam());
  // One file per model: ctest runs the instances as parallel processes.
  const std::string name =
      "roundtrip_" + std::to_string(static_cast<int>(GetParam())) + ".imgrf";
  const std::string path = TempPath(name.c_str());
  std::string error;
  ASSERT_TRUE(WriteGraphFile(graph, GetParam(), path, &error)) << error;

  CompactGraph compact;
  ASSERT_EQ(CompactGraph::Open(path, &compact, &error), SealedStatus::kOk)
      << error;
  EXPECT_EQ(compact.weight_model(), GetParam());
  ExpectSameGraph(graph, compact);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CompactGraphModelTest,
    ::testing::Values(WeightModel::kIcConstant, WeightModel::kWc,
                      WeightModel::kTrivalency, WeightModel::kLtUniform,
                      WeightModel::kLtRandom, WeightModel::kLtParallel),
    [](const auto& info) {
      std::string name = WeightModelName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The streaming writer must produce byte-identical files to WriteGraphFile
// for every streamable model: same dedup/self-loop pipeline, same weight
// draws (TV consumes its RNG in forward edge order like AssignTrivalency).
TEST(GraphFileStreamWriterTest, MatchesWriteGraphFileByteForByte) {
  const NodeId n = 400;
  const std::vector<Arc> arcs = AwkwardArcs(n);
  for (const WeightModel model :
       {WeightModel::kIcConstant, WeightModel::kWc, WeightModel::kTrivalency,
        WeightModel::kLtUniform, WeightModel::kLtParallel}) {
    Graph graph = Graph::FromArcs(n, arcs);
    Rng rng(0x77);
    AssignWeights(graph, model, 0.25, rng);
    const std::string whole = TempPath("whole.imgrf");
    const std::string streamed = TempPath("streamed.imgrf");
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph, model, whole, &error)) << error;

    GraphFileStreamWriter::Options options;
    options.model = model;
    options.ic_p = 0.25;
    options.weight_rng_seed = 0x77;
    GraphFileStreamWriter writer(streamed, n, options);
    for (const Arc& arc : arcs) writer.AddArc(arc.source, arc.target);
    ASSERT_TRUE(writer.Finish(&error)) << error;

    EXPECT_EQ(Slurp(streamed), Slurp(whole))
        << "model " << WeightModelName(model);
    std::remove(whole.c_str());
    std::remove(streamed.c_str());
  }
}

// IMGRF01 bytes pinned across commits: the FNV-1a of both writers' output
// per streamable weight model, on a graph with parallel arcs and on one
// without. Writer-vs-writer agreement alone would miss a format drift in
// both writers at once. The digests were recorded from the writers as they
// were before they shared WriteSealedFile. WriteGraphFile then padded the
// file without parallel arcs with 5 zero bytes before its empty
// multiplicities section (the reader still accepts that padding); both
// writers now end the file at its last byte of data, as the streaming
// writer always did, so `plain` is the streaming writer's old digest.
TEST(GraphFileStreamWriterTest, BothWritersMatchPinnedDigests) {
  struct Golden {
    WeightModel model;
    uint64_t plain;
    uint64_t parallel;
  };
  const Golden goldens[] = {
      {WeightModel::kIcConstant, 0x0432ffbb241f6598ULL, 0x073f341d687ddaadULL},
      {WeightModel::kWc, 0xf69408fcf0cf6e5dULL, 0xb9bd930e7fa15103ULL},
      {WeightModel::kTrivalency, 0x806c1a268cfddc16ULL, 0xbe1f1504d539c692ULL},
      {WeightModel::kLtUniform, 0x83936de38a7bb1d9ULL, 0x9da2a28a9df97067ULL},
      {WeightModel::kLtParallel, 0x40f710dda0961242ULL, 0x0defaca086c4d1e9ULL},
  };
  Rng ba_rng(9);
  const EdgeList ba = BarabasiAlbert(300, 3, ba_rng);
  std::vector<Arc> parallel;
  for (NodeId u = 0; u < 60; ++u) {
    parallel.push_back(Arc{u, (u + 1) % 60});
    parallel.push_back(Arc{u, (u * 7 + 3) % 60});
    if (u % 11 == 0) parallel.push_back(Arc{u, (u + 1) % 60});
  }
  for (const Golden& golden : goldens) {
    for (const bool with_parallel : {false, true}) {
      const NodeId n = with_parallel ? 60 : ba.num_nodes;
      const std::vector<Arc>& arcs = with_parallel ? parallel : ba.arcs;
      Graph graph = Graph::FromArcs(n, arcs);
      ASSERT_EQ(graph.has_parallel_arcs(), with_parallel);
      Rng rng(0x77);
      AssignWeights(graph, golden.model, 0.25, rng);
      const std::string whole = TempPath("golden_whole.imgrf");
      const std::string streamed = TempPath("golden_streamed.imgrf");
      std::string error;
      ASSERT_TRUE(WriteGraphFile(graph, golden.model, whole, &error)) << error;
      GraphFileStreamWriter::Options options;
      options.model = golden.model;
      options.ic_p = 0.25;
      options.weight_rng_seed = 0x77;
      GraphFileStreamWriter writer(streamed, n, options);
      for (const Arc& arc : arcs) writer.AddArc(arc.source, arc.target);
      ASSERT_TRUE(writer.Finish(&error)) << error;

      const uint64_t want = with_parallel ? golden.parallel : golden.plain;
      for (const std::string& path : {whole, streamed}) {
        const std::string bytes = Slurp(path);
        EXPECT_EQ(Fnv1a(bytes.data(), bytes.size()), want)
            << path << " model " << WeightModelName(golden.model)
            << (with_parallel ? " parallel" : " plain");
        std::remove(path.c_str());
      }
    }
  }
}

// dataset_gen parity: a generator's arc stream through the streaming writer
// must produce the same substrate as the SNAP-edge-list → Graph::FromArcs →
// AssignWeights path im_run uses without --graph-file.
TEST(GraphFileStreamWriterTest, GeneratorStreamMatchesEdgeListPipeline) {
  Rng rng(9);
  const EdgeList list = BarabasiAlbert(2000, 4, rng);
  Graph graph = Graph::FromArcs(list.num_nodes, list.arcs);
  AssignWeightedCascade(graph);
  const std::string whole = TempPath("ba_whole.imgrf");
  const std::string streamed = TempPath("ba_streamed.imgrf");
  std::string error;
  ASSERT_TRUE(WriteGraphFile(graph, WeightModel::kWc, whole, &error));

  GraphFileStreamWriter::Options options;
  options.model = WeightModel::kWc;
  GraphFileStreamWriter writer(streamed, list.num_nodes, options);
  for (const Arc& arc : list.arcs) writer.AddArc(arc.source, arc.target);
  ASSERT_TRUE(writer.Finish(&error)) << error;

  CompactGraph compact;
  ASSERT_EQ(CompactGraph::Open(streamed, &compact, &error),
            SealedStatus::kOk)
      << error;
  ExpectSameGraph(graph, compact);
  std::remove(whole.c_str());
  std::remove(streamed.c_str());
}

// dataset_gen hands the streaming writer WeightSeed(S): the TV weights
// baked into the file are the ones AssignSeededWeights draws for the same
// graph at seed S, the rule im_run and every harness cell weight with.
TEST(GraphFileStreamWriterTest, SeededTvWeightsMatchTheOneWeightingRule) {
  const NodeId n = 400;
  const std::vector<Arc> arcs = AwkwardArcs(n);
  Graph graph = Graph::FromArcs(n, arcs);
  AssignSeededWeights(graph, WeightModel::kTrivalency, 0.1, 7);
  const std::string whole = TempPath("seeded_whole.imgrf");
  const std::string streamed = TempPath("seeded_streamed.imgrf");
  std::string error;
  ASSERT_TRUE(WriteGraphFile(graph, WeightModel::kTrivalency, whole, &error))
      << error;
  GraphFileStreamWriter::Options options;
  options.model = WeightModel::kTrivalency;
  options.weight_rng_seed = WeightSeed(7);
  GraphFileStreamWriter writer(streamed, n, options);
  for (const Arc& arc : arcs) writer.AddArc(arc.source, arc.target);
  ASSERT_TRUE(writer.Finish(&error)) << error;
  EXPECT_EQ(Slurp(streamed), Slurp(whole));
  std::remove(whole.c_str());
  std::remove(streamed.c_str());
}

TEST(GraphFileStreamWriterTest, RejectsLtRandom) {
  GraphFileStreamWriter::Options options;
  options.model = WeightModel::kLtRandom;
  GraphFileStreamWriter writer(TempPath("ltr.imgrf"), 4, options);
  writer.AddArc(0, 1);
  std::string error;
  EXPECT_FALSE(writer.Finish(&error));
  EXPECT_NE(error.find("LT-random"), std::string::npos) << error;
}

TEST(GraphFileStreamWriterTest, BidirectionalAndSelfLoopOptionsMatchFromArcs) {
  const NodeId n = 60;
  std::vector<Arc> arcs;
  for (NodeId u = 0; u < n; ++u) {
    arcs.push_back(Arc{u, (u + 1) % n});
    arcs.push_back(Arc{u, u});
    arcs.push_back(Arc{(u * 3 + 1) % n, u});
  }
  GraphOptions graph_options;
  graph_options.make_bidirectional = true;
  Graph graph = Graph::FromArcs(n, arcs, graph_options);
  AssignWeightedCascade(graph);
  const std::string path = TempPath("bidi.imgrf");
  std::string error;

  GraphFileStreamWriter::Options options;
  options.model = WeightModel::kWc;
  options.make_bidirectional = true;
  GraphFileStreamWriter writer(path, n, options);
  for (const Arc& arc : arcs) writer.AddArc(arc.source, arc.target);
  ASSERT_TRUE(writer.Finish(&error)) << error;

  CompactGraph compact;
  ASSERT_EQ(CompactGraph::Open(path, &compact, &error), SealedStatus::kOk)
      << error;
  ExpectSameGraph(graph, compact);
  std::remove(path.c_str());
}

TEST(CompactGraphTest, EmptyAndEdgelessGraphsRoundtrip) {
  for (const NodeId n : {NodeId{0}, NodeId{5}}) {
    Graph graph = Graph::FromArcs(n, {});
    const std::string path = TempPath("empty.imgrf");
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph, WeightModel::kWc, path, &error))
        << error;
    CompactGraph compact;
    ASSERT_EQ(CompactGraph::Open(path, &compact, &error),
              SealedStatus::kOk)
        << error;
    ExpectSameGraph(graph, compact);
    std::remove(path.c_str());
  }
}

TEST(CompactGraphTest, OpenReportsMappedBytesToTrace) {
  const Graph graph = AwkwardGraph(100, WeightModel::kWc);
  const std::string path = TempPath("traced.imgrf");
  std::string error;
  ASSERT_TRUE(WriteGraphFile(graph, WeightModel::kWc, path, &error));
  Trace trace;
  CompactGraph::OpenOptions options;
  options.trace = &trace;
  CompactGraph compact;
  ASSERT_EQ(CompactGraph::Open(path, &compact, &error, options),
            SealedStatus::kOk);
  EXPECT_EQ(trace.Total(TraceCounter::kGraphBytesMapped),
            compact.MappedBytes());
  EXPECT_GT(compact.MappedBytes(), 0u);
  EXPECT_LE(compact.ResidentBytes(), compact.MappedBytes());
  std::remove(path.c_str());
}

// --- Integrity refusals -----------------------------------------------------

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = AwkwardGraph(150, WeightModel::kWc);
    // One file per test: ctest runs the cases as concurrent processes.
    const std::string name =
        std::string("corrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".imgrf";
    path_ = TempPath(name.c_str());
    std::string error;
    ASSERT_TRUE(WriteGraphFile(graph_, WeightModel::kWc, path_, &error));
    bytes_ = Slurp(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void Rewrite(const std::string& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  Graph graph_;
  std::string path_;
  std::string bytes_;
};

TEST_F(CorruptionTest, FlippedPayloadByteIsRefused) {
  std::string torn = bytes_;
  torn[torn.size() / 2] ^= 0x40;
  Rewrite(torn);
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
            SealedStatus::kCorrupt);
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(CorruptionTest, FlippedHeaderByteIsRefused) {
  std::string torn = bytes_;
  torn[20] ^= 0x01;  // flags field
  Rewrite(torn);
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
            SealedStatus::kCorrupt);
}

TEST_F(CorruptionTest, TruncatedFileIsRefused) {
  Rewrite(bytes_.substr(0, bytes_.size() - 9));
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
            SealedStatus::kCorrupt);
}

TEST_F(CorruptionTest, HeaderOnlyFileIsRefused) {
  Rewrite(bytes_.substr(0, 40));
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
            SealedStatus::kCorrupt);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST_F(CorruptionTest, NotAnImgrfFileIsRefused) {
  std::string foreign = "# snap edge list\n";
  for (int i = 0; i < 200; ++i) foreign += std::to_string(i) + " 1\n";
  Rewrite(foreign);
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
            SealedStatus::kCorrupt);
  EXPECT_NE(error.find("IMGRF"), std::string::npos) << error;
}

// Another version of the format is a valid file this build cannot read:
// mismatch, the status a checkpoint of another version gets too.
TEST_F(CorruptionTest, UnsupportedVersionIsRefusedAsMismatch) {
  std::string newer = bytes_;
  newer[6] = '2';  // "IMGRF02"
  Rewrite(newer);
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
            SealedStatus::kMismatch);
  EXPECT_NE(error.find("IMGRF02"), std::string::npos) << error;
}

TEST_F(CorruptionTest, ForeignFingerprintIsRefusedAsMismatch) {
  CompactGraph compact;
  std::string error;
  CompactGraph::OpenOptions options;
  options.has_expected_fingerprint = true;
  options.expected_fingerprint = GraphFingerprint(graph_) ^ 1;
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error, options),
            SealedStatus::kMismatch);
  options.expected_fingerprint = GraphFingerprint(graph_);
  EXPECT_EQ(CompactGraph::Open(path_, &compact, &error, options),
            SealedStatus::kOk);
}

TEST_F(CorruptionTest, MissingFile) {
  CompactGraph compact;
  std::string error;
  EXPECT_EQ(CompactGraph::Open(TempPath("nope.imgrf"), &compact, &error),
            SealedStatus::kMissing);
}

TEST_F(CorruptionTest, InjectedReadAndMapFaultsRefuseAsIoError) {
  for (const char* site : {"graph_file_read", "graph_file_map"}) {
    FaultPlan plan;
    std::string parse_error;
    ASSERT_TRUE(ParseFaultPlan(std::string(site) + ":hit=1", &plan,
                               &parse_error))
        << parse_error;
    FaultInjector::Global().Arm(plan);
    CompactGraph compact;
    std::string error;
    EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
              SealedStatus::kIoError)
        << site;
    EXPECT_NE(error.find("injected"), std::string::npos) << error;
    // The plan is spent; the next open succeeds.
    EXPECT_EQ(CompactGraph::Open(path_, &compact, &error),
              SealedStatus::kOk)
        << site;
    FaultInjector::Global().Disarm();
  }
}

}  // namespace
}  // namespace imbench
