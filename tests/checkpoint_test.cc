// Warm-corpus checkpoint/recovery contract: a load either returns the
// bit-identical corpus that was saved, or refuses — torn files, flipped
// bytes, wrong-identity files and IMCKPT01 files are all detected and the
// service falls back to a cold build that still serves the correct seeds.
// tests/sealed_file_test.cc mutates every byte of a small checkpoint.
#include "service/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "framework/datasets.h"
#include "framework/fault.h"
#include "framework/sealed_file.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"
#include "service/im_service.h"

namespace imbench {
namespace {

constexpr uint64_t kSeed = 29;
constexpr double kEpsilon = 4.0;

Graph CheckpointTestGraph() {
  Graph g = MakeDataset("nethept", DatasetScale::kTiny);
  AssignWeightedCascade(g);
  return g;
}

ServiceOptions BaseOptions() {
  ServiceOptions options;
  options.kind = DiffusionKind::kIndependentCascade;
  options.epsilon = kEpsilon;
  options.seed = kSeed;
  options.retry_backoff_seconds = 0;
  return options;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, RoundtripRecoversWarmCorpusExactly) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  std::remove(path.c_str());

  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  const ImQueryResult original = service.Query(query);
  ASSERT_GT(service.corpus().size(), 0u);

  std::string detail;
  ASSERT_TRUE(service.SaveCheckpoint(path, &detail)) << detail;

  // A restarted process: fresh store on the same graph, fresh service.
  EpochGraphStore store2(CheckpointTestGraph());
  ImService service2(store2, BaseOptions());
  EXPECT_EQ(service2.LoadCheckpoint(path, &detail), SealedStatus::kOk)
      << detail;
  ASSERT_EQ(service2.corpus().size(), service.corpus().size());
  for (size_t i = 0; i < service.corpus().size(); ++i) {
    ASSERT_EQ(std::vector<NodeId>(service.corpus().Set(i).begin(),
                                  service.corpus().Set(i).end()),
              std::vector<NodeId>(service2.corpus().Set(i).begin(),
                                  service2.corpus().Set(i).end()))
        << "set " << i;
  }

  // The recovered corpus is warm: the same query samples nothing and
  // serves the same seeds.
  const ImQueryResult recovered = service2.Query(query);
  EXPECT_EQ(recovered.sets_sampled, 0u);
  EXPECT_EQ(recovered.seeds, original.seeds);

  // Epsilon is informational, not identity: a service with a different
  // default accuracy still accepts the corpus (queries cover prefixes).
  ServiceOptions looser = BaseOptions();
  looser.epsilon = 8.0;
  EpochGraphStore store3(CheckpointTestGraph());
  ImService service3(store3, looser);
  EXPECT_EQ(service3.LoadCheckpoint(path), SealedStatus::kOk);
}

TEST(CheckpointTest, FlippedByteIsDetectedAndColdBuildStillCorrect) {
  const std::string path = TempPath("ckpt_flip.bin");
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  const ImQueryResult original = service.Query(query);
  ASSERT_TRUE(service.SaveCheckpoint(path, nullptr));

  // Flip one payload byte (the last byte of the members arena).
  std::vector<char> bytes = ReadAll(path);
  ASSERT_FALSE(bytes.empty());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  WriteAll(path, bytes);

  EpochGraphStore store2(CheckpointTestGraph());
  ImService service2(store2, BaseOptions());
  std::string detail;
  EXPECT_EQ(service2.LoadCheckpoint(path, &detail),
            SealedStatus::kCorrupt);
  EXPECT_EQ(service2.corpus().size(), 0u);  // refusal leaves the service cold
  // Cold fallback still serves the exact same answer.
  EXPECT_EQ(service2.Query(query).seeds, original.seeds);

  // A flipped *header* byte is equally fatal.
  std::vector<char> header_flip = ReadAll(path);
  header_flip[9] = static_cast<char>(header_flip[9] ^ 0x40);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // restore payload
  WriteAll(path, header_flip);
  EXPECT_EQ(service2.LoadCheckpoint(path), SealedStatus::kCorrupt);
}

TEST(CheckpointTest, TruncatedFileIsCorrupt) {
  const std::string path = TempPath("ckpt_trunc.bin");
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  service.Query(query);
  ASSERT_TRUE(service.SaveCheckpoint(path, nullptr));

  const std::vector<char> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  // Torn payload: header intact, tail missing.
  WriteAll(path, std::vector<char>(bytes.begin(), bytes.end() - 16));
  EXPECT_EQ(service.LoadCheckpoint(path), SealedStatus::kCorrupt);
  // Torn header.
  WriteAll(path, std::vector<char>(bytes.begin(), bytes.begin() + 10));
  EXPECT_EQ(service.LoadCheckpoint(path), SealedStatus::kCorrupt);
}

TEST(CheckpointTest, WrongIdentityIsMismatchNotCorrupt) {
  const std::string path = TempPath("ckpt_identity.bin");
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  service.Query(query);
  ASSERT_TRUE(service.SaveCheckpoint(path, nullptr));

  // Different sampler seed: the corpus identity is (graph, kind, seed).
  ServiceOptions other_seed = BaseOptions();
  other_seed.seed = kSeed + 1;
  EpochGraphStore store2(CheckpointTestGraph());
  ImService reseeded(store2, other_seed);
  EXPECT_EQ(reseeded.LoadCheckpoint(path), SealedStatus::kMismatch);

  // Different diffusion model.
  ServiceOptions other_kind = BaseOptions();
  other_kind.kind = DiffusionKind::kLinearThreshold;
  EpochGraphStore store3(CheckpointTestGraph());
  ImService rekinded(store3, other_kind);
  EXPECT_EQ(rekinded.LoadCheckpoint(path), SealedStatus::kMismatch);

  // Same options, mutated graph: the fingerprint binds the checkpoint to
  // the exact topology + weights it was sampled on.
  EpochGraphStore store4(CheckpointTestGraph());
  const auto snap = store4.Current();
  WeightedArc existing{0, snap.graph->OutTargets(0)[0], 0.123};
  store4.UpdateWeights({{existing}});
  ImService mutated(store4, BaseOptions());
  EXPECT_EQ(mutated.LoadCheckpoint(path), SealedStatus::kMismatch);
}

TEST(CheckpointTest, MissingFileIsNormalColdStart) {
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  EXPECT_EQ(service.LoadCheckpoint(TempPath("ckpt_does_not_exist.bin")),
            SealedStatus::kMissing);
  EXPECT_EQ(service.corpus().size(), 0u);
}

TEST(CheckpointTest, InjectedTornWriteIsRejectedOnRecovery) {
  const std::string path = TempPath("ckpt_torn.bin");
  std::remove(path.c_str());
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  const ImQueryResult original = service.Query(query);

  {
    FaultRule rule;
    rule.site = std::string(faultsite::kCheckpointWrite);
    rule.fire_on_hit = 1;
    FaultPlan plan;
    plan.rules.push_back(rule);
    ScopedFaultPlan scoped(plan);
    std::string detail;
    EXPECT_FALSE(service.SaveCheckpoint(path, &detail));
    EXPECT_NE(detail.find("torn"), std::string::npos);
  }

  // The torn file is on disk — and the section table refuses it.
  EpochGraphStore store2(CheckpointTestGraph());
  ImService service2(store2, BaseOptions());
  std::string detail;
  EXPECT_EQ(service2.LoadCheckpoint(path, &detail), SealedStatus::kCorrupt);
  EXPECT_NE(detail.find("truncated"), std::string::npos) << detail;
  EXPECT_EQ(service2.Query(query).seeds, original.seeds);
}

TEST(CheckpointTest, InjectedReadFaultIsIoError) {
  const std::string path = TempPath("ckpt_readfault.bin");
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  service.Query(query);
  ASSERT_TRUE(service.SaveCheckpoint(path, nullptr));

  FaultRule rule;
  rule.site = std::string(faultsite::kCheckpointRead);
  rule.fire_on_hit = 1;
  FaultPlan plan;
  plan.rules.push_back(rule);
  ScopedFaultPlan scoped(plan);
  EpochGraphStore store2(CheckpointTestGraph());
  ImService service2(store2, BaseOptions());
  EXPECT_EQ(service2.LoadCheckpoint(path), SealedStatus::kIoError);
  // The fault window is spent; a retry succeeds.
  EXPECT_EQ(service2.LoadCheckpoint(path), SealedStatus::kOk);
}

// IMCKPT01, the unsectioned layout before the sealed-file container, has
// no reader: a well-formed IMCKPT01 file of the exact corpus is refused as
// another version, the service stays cold, and it serves the cold seeds.
TEST(CheckpointTest, Imckpt01FileIsRefusedAndServiceBuildsCold) {
  const std::string path = TempPath("ckpt_v1.bin");
  EpochGraphStore store(CheckpointTestGraph());
  ImService service(store, BaseOptions());
  ImQuery query;
  query.k = 5;
  const ImQueryResult original = service.Query(query);
  const std::span<const uint64_t> offsets = service.corpus().OffsetsArena();
  const std::span<const NodeId> members = service.corpus().MembersArena();

  // magic, version, kind, seed, epoch, epsilon, num_nodes, reserved,
  // fingerprint, set and entry counts, payload and header checksums.
  std::string file("IMCKPT01", 8);
  auto put = [&file](const auto& value) {
    file.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  put(uint32_t{1});
  put(static_cast<uint32_t>(BaseOptions().kind));
  put(BaseOptions().seed);
  put(uint64_t{0});
  put(BaseOptions().epsilon);
  put(store.Current().graph->num_nodes());
  put(uint32_t{0});
  put(GraphFingerprint(*store.Current().graph));
  put(static_cast<uint64_t>(service.corpus().size()));
  put(static_cast<uint64_t>(members.size()));
  put(Fnv1a(members.data(), members.size_bytes(),
            Fnv1a(offsets.data(), offsets.size_bytes())));
  put(Fnv1a(file.data(), file.size()));
  file.append(reinterpret_cast<const char*>(offsets.data()),
              offsets.size_bytes());
  file.append(reinterpret_cast<const char*>(members.data()),
              members.size_bytes());
  WriteAll(path, std::vector<char>(file.begin(), file.end()));

  EpochGraphStore store2(CheckpointTestGraph());
  ImService service2(store2, BaseOptions());
  std::string detail;
  EXPECT_EQ(service2.LoadCheckpoint(path, &detail), SealedStatus::kMismatch);
  EXPECT_NE(detail.find("IMCKPT01"), std::string::npos) << detail;
  EXPECT_EQ(service2.corpus().size(), 0u);
  const ImQueryResult cold = service2.Query(query);
  EXPECT_GT(cold.sets_sampled, 0u);
  EXPECT_EQ(cold.seeds, original.seeds);
}

TEST(CheckpointTest, GraphFingerprintTracksTopologyAndWeights) {
  Graph a = CheckpointTestGraph();
  Graph b = CheckpointTestGraph();
  EXPECT_EQ(GraphFingerprint(a), GraphFingerprint(b));

  std::vector<double> weights(a.weights().begin(), a.weights().end());
  weights[0] += 0.5;
  b.SetWeights(weights);
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(b));

  Graph c = Graph::FromArcs(3, {Arc{0, 1}, Arc{1, 2}});
  std::vector<double> wc(c.num_edges(), 0.5);
  c.SetWeights(wc);
  EXPECT_NE(GraphFingerprint(a), GraphFingerprint(c));
}

TEST(CheckpointTest, StatusNamesAreStable) {
  EXPECT_STREQ(SealedStatusName(SealedStatus::kOk), "ok");
  EXPECT_STREQ(SealedStatusName(SealedStatus::kMissing), "missing");
  EXPECT_STREQ(SealedStatusName(SealedStatus::kIoError), "io_error");
  EXPECT_STREQ(SealedStatusName(SealedStatus::kCorrupt), "corrupt");
  EXPECT_STREQ(SealedStatusName(SealedStatus::kMismatch), "mismatch");
}

}  // namespace
}  // namespace imbench
