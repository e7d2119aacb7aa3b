// Line-oriented query+mutation workloads for the IM service.
//
// Format (one op per line; '#' starts a comment; blank lines ignored):
//
//   query k=10 [eps=2.0] [deadline=1.5] [mem=64]
//   add 3,7,0.5 1,2,0.25
//   update 0,4,0.9
//
// `query` serves ImService::Query with the given seed-set size, optional
// accuracy ε (default: the service's), optional wall-clock deadline in
// seconds and heap cap in MB. `add` / `update` are EpochGraphStore
// mutations taking source,target,weight triples (one call per line, so a
// line is one epoch transition). A node id is decimal digits below
// 2^32 - 1 and a weight must be finite; any other triple makes the line
// malformed. Node ids are the graph's dense ids (0..n-1): for an
// `im_run --graph=FILE` edge list that is the order of first appearance in
// the file, not the file's own ids, and nothing translates between them.
// This is the format `im_run --serve --workload=FILE` replays;
// tests/service_test.cc drives the same parser.
#ifndef IMBENCH_SERVICE_WORKLOAD_H_
#define IMBENCH_SERVICE_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "service/epoch_graph_store.h"
#include "service/im_service.h"

namespace imbench {

struct WorkloadOp {
  enum class Kind { kQuery, kAddEdges, kUpdateWeights, kMalformed };
  Kind kind = Kind::kQuery;
  ImQuery query;                  // kQuery
  std::vector<WeightedArc> arcs;  // kAddEdges / kUpdateWeights
  // kMalformed (lenient parse only): what was wrong and where, so replay
  // can report the line instead of refusing the whole file.
  std::string error;
  std::string text;  // the offending line, verbatim
  int line = 0;      // 1-based
};

// Parses workload text: the lenient parse below, with its first malformed
// line turned into the error. On such a line, returns false and describes
// the problem in *error — 1-based line number and the offending line text
// included ("line 3: unknown op 'quary' [quary k=5]").
bool ParseWorkload(const std::string& text, std::vector<WorkloadOp>* ops,
                   std::string* error);

// Lenient variant for `--keep-going` replays: never fails. Malformed
// lines become kMalformed ops (carrying the error, line number, and line
// text) interleaved in order with the well-formed ones, so replay can emit
// one error record per bad line and keep serving the rest.
void ParseWorkloadLenient(const std::string& text,
                          std::vector<WorkloadOp>* ops);

// Reads a workload file into *text. The read is a fault site
// (`workload_io`): an injected fault fails the call with "injected
// workload read fault" so callers can rehearse their retry-the-config
// path.
bool ReadWorkloadFile(const std::string& path, std::string* text,
                      std::string* error);

// Replay policy (defaults: strict, non-stop). A publish that fails
// transiently (the epoch_rebuild fault site) is retried under the service's
// one rule, RetryTransient, with the service's retry_backoff_seconds; an
// invalid mutation is never retried.
struct ReplayOptions {
  // Drain flag: checked before each op, and wired into each query's budget
  // as its cancel flag. When it flips mid-replay the in-flight query
  // drains gracefully (best-effort seeds, stop="cancelled"), no further
  // ops start, and ReplayResult::interrupted is set. `im_run --serve`
  // points this at its SIGINT/SIGTERM flag.
  const std::atomic<bool>* stop = nullptr;
  // Keep replaying after a malformed line, an invalid mutation (one the
  // store refuses: a node out of range, a self loop, an update of an
  // absent edge) or a persistently failing one (each emits an
  // {"op":"error",...} record). Default: stop at the first such op, which
  // `im_run --serve` reports with exit status 1.
  bool keep_going = false;
};

// Outcome of replaying one workload against a store + service.
struct ReplayResult {
  std::vector<ImQueryResult> queries;  // one per `query` op, in order
  uint64_t mutations = 0;              // epoch transitions applied
  uint64_t final_epoch = 0;
  uint64_t retries = 0;    // transient retries (queries + mutations)
  uint64_t degraded = 0;   // queries served by a cold rebuild
  uint64_t errors = 0;     // malformed lines + refused/failed mutations
  bool interrupted = false;  // drained early via ReplayOptions::stop
};

// Executes the ops in order. When `log` is non-null, appends one JSON
// object per op (newline-terminated) describing what happened — the
// machine-readable replay record `im_run --serve` prints.
ReplayResult ReplayWorkload(EpochGraphStore& store, ImService& service,
                            const std::vector<WorkloadOp>& ops,
                            std::string* log = nullptr,
                            const ReplayOptions& options = {});

}  // namespace imbench

#endif  // IMBENCH_SERVICE_WORKLOAD_H_
