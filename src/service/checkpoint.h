// Warm-corpus checkpointing: the RR arena, the service's most expensive
// state, survives a restart.
//
// A checkpoint (IMCKPT02) is a sealed file (framework/sealed_file.h), the
// container `.imgrf` graphs use too: two sections, the set-offsets arena
// and the members arena, written as-is, under format fields that prove the
// corpus still describes THIS service: the diffusion kind and sampler seed
// (the corpus identity: set i is Rng::ForStream(seed, i) on the graph), the
// node count, and the GraphFingerprint() of the graph's full topology and
// weights. The header and payload checksums reject torn or tampered files.
// An IMCKPT01 file (the earlier, unsectioned layout) is refused as
// kMismatch; the service then builds cold.
//
// The recovery contract: LoadCorpusCheckpoint either returns a corpus that
// is bit-identical to what the running service held at save time, or it
// refuses (kCorrupt / kMismatch / ...) and the service falls back to a
// cold build. It never returns a plausible-but-wrong corpus — a service
// that silently served seeds from a stale graph would be worse than one
// that resamples. tests/checkpoint_test.cc pins this with a flip-one-byte
// test and a mutate-the-graph test, tests/sealed_file_test.cc with every
// flip, truncation and splice of a small checkpoint.
#ifndef IMBENCH_SERVICE_CHECKPOINT_H_
#define IMBENCH_SERVICE_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "diffusion/cascade.h"
#include "diffusion/rr_sets.h"
#include "framework/sealed_file.h"
#include "graph/graph.h"
#include "graph/graph_file.h"  // GraphFingerprint

namespace imbench {

// Metadata bound to a checkpointed corpus. On load, `kind`, `seed`,
// `num_nodes` and `graph_fingerprint` must match the expectation exactly;
// `epoch` and `epsilon` are informational (an older corpus prefix is still
// valid for a looser epsilon — queries cover prefixes).
struct CheckpointMeta {
  DiffusionKind kind = DiffusionKind::kIndependentCascade;
  uint64_t seed = 0;         // sampler stream base (the corpus identity)
  double epsilon = 0;        // service default accuracy at save time
  uint64_t epoch = 0;        // store epoch at save time
  NodeId num_nodes = 0;
  uint64_t graph_fingerprint = 0;  // GraphFingerprint() of the snapshot
};

// perfbench/perfbench.cc still spells the checkpoint's own status name;
// it names the one sealed-file status.
using CheckpointStatus = SealedStatus;

// Writes `corpus` + `meta` to `path`. Returns false on IO failure (or an
// injected checkpoint_write fault, which tears the file on purpose),
// describing the problem in *error. Checkpointing is best-effort: callers
// log a failed save and keep serving.
bool SaveCorpusCheckpoint(const std::string& path, const CheckpointMeta& meta,
                          const RrCollection& corpus, std::string* error);

// Loads `path` and validates it against `expected` (kind/seed/num_nodes/
// graph_fingerprint). On kOk fills *corpus and, when non-null, *saved_meta
// with the file's informational fields. On any other status *corpus is
// untouched and *error describes the refusal.
SealedStatus LoadCorpusCheckpoint(const std::string& path,
                                  const CheckpointMeta& expected,
                                  RrCollection* corpus,
                                  CheckpointMeta* saved_meta,
                                  std::string* error);

}  // namespace imbench

#endif  // IMBENCH_SERVICE_CHECKPOINT_H_
