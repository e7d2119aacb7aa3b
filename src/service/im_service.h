// The always-on IM query engine: one warm RR corpus, many queries.
//
// A one-shot run pays the full sampling bill every time: θ(ε, k) RR sets
// generated, covered, thrown away. The service keeps the corpus. Because
// set i is always drawn from Rng::ForStream(seed, i), a corpus is a pure
// function of (graph, diffusion kind, seed, count) — so it can be
//   * reused: a repeat query whose θ fits inside the warm corpus samples
//     nothing and goes straight to cover;
//   * topped up: a query needing more sets seeks the engine to the corpus
//     size and appends exactly the sets a cold engine would have produced
//     next;
//   * repaired: after a store mutation, only the sets containing a touched
//     node are regenerated on the new snapshot (per-set streams localize
//     the damage) and spliced back in place.
// The correctness contract, enforced by tests/service_test.cc: after any
// mutation sequence, served seeds are byte-identical to a cold rebuild on
// the post-mutation snapshot at the same sampler seed. Queries cover the
// prefix of the first θ sets (GreedyMaxCoverPrefix), so a corpus grown
// past a query's θ never changes that query's answer.
//
// Cost of a warm query: O(n + covered entries), whether it covers the
// whole corpus or a prefix. The corpus caches the node degrees of the last
// few prefix limits (RrCollection::kPrefixDegreeSlots) and repair patches
// them with the index, so a repeat k reads them instead of counting its
// prefix again; only the first query at a new θ pays one forward pass over
// the sets past its prefix.
//
// Each query runs under its own RunGuard built from ImQuery::budget. A
// trip during top-up serves best-effort seeds from the partial prefix; a
// trip during repair discards the warm corpus (repair is all-or-nothing —
// a half-repaired corpus would be silently wrong) and the query proceeds
// cold under the already-tripped guard.
//
// Self-healing: stop reasons are split into transient (StopReason::kFault,
// an injected or simulated recoverable failure) and fatal (budget trips).
// Every transient failure goes through one rule, RetryTransient: at most
// kTransientRetries retries in place with exponential backoff. The
// per-index streams make every retry regenerate exactly the missing sets,
// so a query that survives its faults serves seeds byte-identical to a
// fault-free run. When the retries run out, a repair falls back to a cold
// corpus rebuild (DegradeMode::kColdRebuild, reported on the result), and
// a top-up reports stop=fault with best-effort seeds from the partial
// prefix, as a budget trip does.
#ifndef IMBENCH_SERVICE_IM_SERVICE_H_
#define IMBENCH_SERVICE_IM_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/run_options.h"
#include "diffusion/rr_sets.h"
#include "framework/run_guard.h"
#include "service/checkpoint.h"
#include "service/epoch_graph_store.h"

namespace imbench {

// Long-lived service configuration. The CommonRunOptions fields apply to
// every query: `seed` keys the corpus streams (it must stay fixed for the
// lifetime of the corpus — it *is* the corpus identity, together with the
// snapshot epoch and diffusion kind), `threads`/`pool` pick the top-up
// backend, `trace` collects service counters across queries. `guard` is
// ignored: each query builds its own from ImQuery::budget.
struct ServiceOptions : CommonRunOptions {
  DiffusionKind kind = DiffusionKind::kIndependentCascade;
  // Default per-query accuracy; ImQuery::epsilon <= 0 selects this.
  double epsilon = 0.5;
  // Base of the exponential backoff between transient retries (retry r
  // sleeps base * 2^(r-1); 0 disables sleeping, which tests use to keep
  // chaos runs fast).
  double retry_backoff_seconds = 0.001;
};

// How far a query had to fall from the warm-corpus fast path to be served.
enum class DegradeMode : uint8_t {
  kNone = 0,     // warm path (reuse / top-up / repair) succeeded
  kColdRebuild,  // repair failed; corpus discarded and rebuilt cold
};

const char* DegradeModeName(DegradeMode mode);

// The one retry budget for a transient failure: every retry site (corpus
// repair, top-up, ReplayWorkload's publish, im_run's workload read) makes
// at most 1 + kTransientRetries attempts.
inline constexpr uint32_t kTransientRetries = 4;

// The one retry rule. Calls `attempt` until it returns false (it got
// through, or failed in a way a retry cannot mend), at most
// 1 + kTransientRetries times; retry r first sleeps
// backoff_seconds * 2^(r-1) (no sleep when the base is not positive).
// Returns the number of retries made; whether the last attempt succeeded
// is the caller's own state.
uint32_t RetryTransient(double backoff_seconds,
                        const std::function<bool()>& attempt);

// One influence-maximization query.
struct ImQuery {
  uint32_t k = 1;
  double epsilon = 0;  // <= 0: ServiceOptions::epsilon
  RunBudget budget;    // per-query limits; default unlimited
};

struct ImQueryResult {
  std::vector<NodeId> seeds;
  double covered_fraction = 0;
  uint64_t epoch = 0;          // snapshot epoch this answer is valid for
  uint64_t sets_used = 0;      // θ for this query (the covered prefix)
  uint64_t sets_sampled = 0;   // sets newly generated by top-up
  uint64_t sets_reused = 0;    // warm sets served without resampling
  uint64_t sets_repaired = 0;  // warm sets regenerated by mutation repair
  uint32_t retries = 0;        // transient faults retried while serving
  DegradeMode degraded = DegradeMode::kNone;
  StopReason stop_reason = StopReason::kNone;

  bool complete() const { return stop_reason == StopReason::kNone; }
};

class ImService {
 public:
  // The store must outlive the service. Weights for `options.kind` must
  // already be assigned on the store's graph.
  ImService(EpochGraphStore& store, const ServiceOptions& options);

  // Serves one query against the store's current snapshot, reusing /
  // topping up / repairing the warm corpus as needed.
  ImQueryResult Query(const ImQuery& query);

  // θ(n, k, ε): the TIM-style RR-set requirement this service samples to,
  //   (8 + 2ε) · n · (ln n + ln C(n, k) + ln 2) / (ε² · max(k, 1)),
  // using OPT >= k as the spread lower bound (every k-seed set reaches at
  // least its own k nodes). A deterministic pure function, exposed so the
  // differential tests can rebuild a cold corpus of exactly this size.
  static uint64_t RequiredSets(NodeId num_nodes, uint32_t k, double epsilon);

  // Recovers the warm corpus from a checkpoint file, validating it against
  // the store's *current* snapshot (kind/seed/node count/graph
  // fingerprint). On kOk the corpus is adopted and pinned to that
  // snapshot; on any refusal the service state is untouched and the next
  // query simply builds cold. *detail (when non-null) gets a one-line
  // explanation either way.
  SealedStatus LoadCheckpoint(const std::string& path,
                              std::string* detail = nullptr);

  // Writes the warm corpus to `path`, stamped with the corpus' own
  // snapshot identity. Best-effort: returns false (with *detail) on an IO
  // failure or an injected checkpoint_write fault; the service keeps
  // serving either way.
  bool SaveCheckpoint(const std::string& path, std::string* detail = nullptr);

  const ServiceOptions& options() const { return options_; }
  const RrCollection& corpus() const { return corpus_; }
  uint64_t corpus_epoch() const { return corpus_epoch_; }

 private:
  enum class RepairOutcome : uint8_t { kOk, kTransient, kFatal };

  // One repair attempt: regenerates the sets invalidated between
  // corpus_epoch_ and `snap`'s epoch, splicing them in only when every one
  // regenerated cleanly (all-or-nothing — on kTransient/kFatal the corpus
  // is bit-identical to before the call, so a retry starts from the same
  // state). Fills result->sets_repaired on kOk.
  RepairOutcome TryRepair(const EpochGraphStore::Snapshot& snap,
                          RunGuard* guard, ImQueryResult* result);

  // Repair under RetryTransient; when the retries run out, or on any fatal
  // outcome, discards the corpus so the query rebuilds cold
  // (DegradeMode::kColdRebuild).
  void MigrateCorpus(const EpochGraphStore::Snapshot& snap, RunGuard* guard,
                     ImQueryResult* result);

  // Grows the corpus to `required` sets with the configured lanes under
  // RetryTransient, re-seeking to the corpus size on each retry. A budget
  // trip, or a fault that outlasts the retries, serves the partial prefix
  // with that stop reason.
  void TopUp(const EpochGraphStore::Snapshot& snap, uint64_t required,
             RunGuard* guard, ImQueryResult* result);

  EpochGraphStore& store_;
  ServiceOptions options_;
  RrCollection corpus_;
  // Pin of the snapshot the corpus was sampled on: keeps the graph the
  // corpus references alive even after the store publishes successors.
  std::shared_ptr<const Graph> corpus_graph_;
  uint64_t corpus_epoch_ = 0;
};

}  // namespace imbench

#endif  // IMBENCH_SERVICE_IM_SERVICE_H_
