// Mutation suite for the two sealed-file formats (framework/sealed_file.h):
// every single-byte flip, every truncation and every same-offset splice of
// small valid `.imgrf` graphs and corpus checkpoints must be refused with a
// typed status (corrupt or mismatch), never adopted and never a crash. The
// asan preset runs this file like every other, so an out-of-bounds read on
// a mutant is a test failure too.
#include "framework/sealed_file.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "diffusion/rr_sets.h"
#include "graph/compact_graph.h"
#include "graph/graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"
#include "service/checkpoint.h"

namespace imbench {
namespace {

std::string TempPath(const std::string& name) {
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

void Spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// Writes each mutant of `a` to `path` and asserts `open` refuses it as
// corrupt or mismatch: one flipped bit per byte position (the bit rotates
// with the position), every shorter length, and a[0, i) + b[i, end) for
// every split point i. Mutants equal to `a` or `b` are valid files and
// skipped.
template <typename Open>
void ExpectEveryMutantRefused(const std::string& path, const std::string& a,
                              const std::string& b, Open open) {
  size_t checked = 0;
  auto check = [&](const std::string& mutant, const std::string& what) {
    if (mutant == a || mutant == b) return;
    Spit(path, mutant);
    const SealedStatus status = open(path);
    ++checked;
    ASSERT_TRUE(status == SealedStatus::kCorrupt ||
                status == SealedStatus::kMismatch)
        << what << " opened as " << SealedStatusName(status);
  };
  for (size_t i = 0; i < a.size(); ++i) {
    std::string mutant = a;
    mutant[i] = static_cast<char>(mutant[i] ^ (1 << (i % 8)));
    check(mutant, "flip at byte " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t size = 0; size < a.size(); ++size) {
    check(a.substr(0, size), "truncation to " + std::to_string(size));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t i = 1; i < std::max(a.size(), b.size()); ++i) {
    check(a.substr(0, i) + (i < b.size() ? b.substr(i) : std::string()),
          "splice at " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(checked, 2 * a.size());
  std::remove(path.c_str());
}

// A 40-node graph, small enough for every mutant to be opened: nodes
// 35-39 have no out-arcs, and `parallel` adds duplicate arcs, so the file
// gets a multiplicities section.
std::string GraphFileBytes(const std::string& path, WeightModel model,
                           bool parallel) {
  const NodeId n = 40;
  std::vector<Arc> arcs;
  for (NodeId u = 0; u + 5 < n; ++u) {
    arcs.push_back(Arc{u, (u * 7 + 2) % n});
    arcs.push_back(Arc{u, (u + 1) % n});
    if (parallel && u % 4 == 0) arcs.push_back(Arc{u, (u + 1) % n});
  }
  Graph graph = Graph::FromArcs(n, arcs);
  Rng rng(0x5eed);
  AssignWeights(graph, model, 0.1, rng);
  std::string error;
  EXPECT_TRUE(WriteGraphFile(graph, model, path, &error)) << error;
  return Slurp(path);
}

SealedStatus OpenGraph(const std::string& path) {
  CompactGraph compact;
  std::string error;
  const SealedStatus status = CompactGraph::Open(path, &compact, &error);
  EXPECT_EQ(compact.mapped(), status == SealedStatus::kOk);
  EXPECT_FALSE(error.empty() && status != SealedStatus::kOk);
  return status;
}

TEST(SealedFileMutationTest, EveryImgrfMutantIsRefused) {
  const std::string a = GraphFileBytes(TempPath("mut_a.imgrf"),
                                       WeightModel::kTrivalency, false);
  const std::string b = GraphFileBytes(TempPath("mut_b.imgrf"),
                                       WeightModel::kLtUniform, false);
  ASSERT_EQ(a.size(), b.size());  // same topology: splices at every offset
  ExpectEveryMutantRefused(TempPath("mut_imgrf.imgrf"), a, b, OpenGraph);
}

TEST(SealedFileMutationTest, EveryImgrfMutantWithMultiplicitiesIsRefused) {
  const std::string a = GraphFileBytes(TempPath("mut_pa.imgrf"),
                                       WeightModel::kLtParallel, true);
  const std::string b = GraphFileBytes(TempPath("mut_pb.imgrf"),
                                       WeightModel::kWc, false);
  ASSERT_NE(a.size(), b.size());  // splices across a size change too
  ExpectEveryMutantRefused(TempPath("mut_pimgrf.imgrf"), a, b, OpenGraph);
}

CheckpointMeta SmallMeta() {
  CheckpointMeta meta;
  meta.kind = DiffusionKind::kLinearThreshold;
  meta.seed = 17;
  meta.epsilon = 0.5;
  meta.epoch = 3;
  meta.num_nodes = 30;
  meta.graph_fingerprint = 0x1234abcd;
  return meta;
}

std::string CheckpointBytes(const std::string& path, size_t num_sets) {
  RrCollection corpus(SmallMeta().num_nodes);
  for (size_t i = 0; i < num_sets; ++i) {
    std::vector<NodeId> set;
    for (NodeId v = 0; v < 1 + i % 4; ++v) set.push_back((v * 7 + i) % 30);
    corpus.Add(set);
  }
  std::string error;
  EXPECT_TRUE(SaveCorpusCheckpoint(path, SmallMeta(), corpus, &error))
      << error;
  return Slurp(path);
}

TEST(SealedFileMutationTest, EveryCheckpointMutantIsRefused) {
  const std::string a = CheckpointBytes(TempPath("mut_a.ckpt"), 20);
  const std::string b = CheckpointBytes(TempPath("mut_b.ckpt"), 27);
  ExpectEveryMutantRefused(
      TempPath("mut_ckpt.ckpt"), a, b, [](const std::string& path) {
        RrCollection corpus(SmallMeta().num_nodes);
        corpus.Add({1, 2});
        std::string error;
        const SealedStatus status =
            LoadCorpusCheckpoint(path, SmallMeta(), &corpus, nullptr, &error);
        // A refusal leaves the caller's corpus untouched.
        EXPECT_EQ(corpus.size(), status == SealedStatus::kOk ? 20u : 1u);
        return status;
      });
}

// The reader accepts zero padding up to a trailing empty section's offset
// (older WriteGraphFile output ends that way) and nothing more.
TEST(SealedFileTest, OnlyZeroPaddingMayFollowTheLastSection) {
  const std::string path = TempPath("padded.imgrf");
  Graph graph = Graph::FromArcs(3, {Arc{0, 1}});  // ends in 2 in-block bytes
  AssignWeightedCascade(graph);
  std::string error;
  ASSERT_TRUE(WriteGraphFile(graph, WeightModel::kWc, path, &error)) << error;
  const std::string bytes = Slurp(path);
  const size_t pad = (8 - bytes.size() % 8) % 8;
  ASSERT_GT(pad, 1u);
  Spit(path, bytes + std::string(pad, '\0'));
  EXPECT_EQ(OpenGraph(path), SealedStatus::kOk);
  Spit(path, bytes + std::string(pad - 1, '\0') + "\x01");
  EXPECT_EQ(OpenGraph(path), SealedStatus::kCorrupt);
  Spit(path, bytes + std::string(pad + 8, '\0'));
  EXPECT_EQ(OpenGraph(path), SealedStatus::kCorrupt);
  std::remove(path.c_str());
}

// The shared FNV-1a is the 64-bit reference function (offset basis
// 0xcbf29ce484222325, prime 0x100000001b3).
TEST(SealedFileTest, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a("foobar", 6), 0x85944171f73967e8ULL);
  // Streaming in pieces equals one pass.
  EXPECT_EQ(Fnv1a("bar", 3, Fnv1a("foo", 3)), Fnv1a("foobar", 6));
}

}  // namespace
}  // namespace imbench
