#include "service/im_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "framework/fault.h"
#include "framework/trace.h"

namespace imbench {

namespace {

// Sleeps base_seconds * 2^(retry-1); no-op when the base is not positive.
void RetryBackoff(double base_seconds, uint32_t retry) {
  if (base_seconds <= 0) return;
  const double seconds =
      base_seconds * std::exp2(static_cast<double>(retry - 1));
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

const char* DegradeModeName(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kNone:
      return "none";
    case DegradeMode::kColdRebuild:
      return "cold_rebuild";
  }
  return "?";
}

uint32_t RetryTransient(double backoff_seconds,
                        const std::function<bool()>& attempt) {
  uint32_t retries = 0;
  while (attempt() && retries < kTransientRetries) {
    ++retries;
    RetryBackoff(backoff_seconds, retries);
  }
  return retries;
}

ImService::ImService(EpochGraphStore& store, const ServiceOptions& options)
    : store_(store),
      options_(options),
      corpus_(store.Current().graph->num_nodes()),
      corpus_graph_(store.Current().graph),
      corpus_epoch_(store.Current().epoch) {}

uint64_t ImService::RequiredSets(NodeId num_nodes, uint32_t k,
                                 double epsilon) {
  IMBENCH_CHECK(num_nodes > 0);
  IMBENCH_CHECK(epsilon > 0);
  const double n = static_cast<double>(num_nodes);
  const double kk = static_cast<double>(std::max<uint32_t>(k, 1));
  const double lambda = (8.0 + 2.0 * epsilon) * n *
                        (std::log(n) + LogChoose(n, kk) + std::log(2.0)) /
                        (epsilon * epsilon);
  const double theta = std::ceil(lambda / kk);
  return std::max<uint64_t>(1, static_cast<uint64_t>(theta));
}

ImService::RepairOutcome ImService::TryRepair(
    const EpochGraphStore::Snapshot& snap, RunGuard* guard,
    ImQueryResult* result) {
  const std::vector<NodeId> touched = store_.TouchedSince(corpus_epoch_);
  if (touched.empty() || corpus_.size() == 0) return RepairOutcome::kOk;
  const std::vector<uint32_t> invalid = corpus_.SetsContainingAny(touched);
  if (invalid.empty()) return RepairOutcome::kOk;

  // Regenerate each invalidated stream on the new snapshot. Per-set
  // streams make this exact: set i regenerated here is the set a cold
  // engine would produce at index i on this graph. Repair is sequential —
  // the damage is proportional to the mutation, not the corpus: only the
  // invalidated sets are sampled, and ReplaceSets splices them into the
  // arenas in place and patches just the index slices of the nodes that
  // entered or left them, so the cover that follows is a warm one. What
  // still scales with the corpus is a memmove of the arenas behind the
  // first replaced set. The splice happens only after every set
  // regenerated cleanly, so any early return leaves the corpus
  // bit-identical to before this attempt.
  RrSampler sampler(*snap.graph, options_.kind, guard);
  std::vector<NodeId> members;
  std::vector<uint32_t> sizes;
  sizes.reserve(invalid.size());
  std::vector<NodeId> scratch;
  for (const uint32_t id : invalid) {
    // Fault site: the repair path dies before regenerating this set.
    // Transient reasons leave the guard alone so the retry starts clean;
    // fatal reasons simulate a budget trip and take the discard path.
    StopReason injected = StopReason::kNone;
    if (FaultFire(faultsite::kServiceRepair, &injected)) {
      if (IsTransientStop(injected)) return RepairOutcome::kTransient;
      if (guard != nullptr) guard->Trip(injected);
      return RepairOutcome::kFatal;
    }
    sampler.GenerateStream(options_.seed, id, scratch);
    if (guard != nullptr && guard->stopped()) {
      // The in-flight set may be truncated and a partial splice would be
      // silently wrong.
      return RepairOutcome::kFatal;
    }
    members.insert(members.end(), scratch.begin(), scratch.end());
    sizes.push_back(static_cast<uint32_t>(scratch.size()));
  }
  corpus_.ReplaceSets(invalid, members, sizes);
  result->sets_repaired = invalid.size();
  TraceAdd(options_.trace, TraceCounter::kRrSetsRepaired, invalid.size());
  return RepairOutcome::kOk;
}

void ImService::MigrateCorpus(const EpochGraphStore::Snapshot& snap,
                              RunGuard* guard, ImQueryResult* result) {
  RepairOutcome outcome = RepairOutcome::kOk;
  result->retries += RetryTransient(options_.retry_backoff_seconds, [&] {
    outcome = TryRepair(snap, guard, result);
    return outcome == RepairOutcome::kTransient;
  });
  if (outcome == RepairOutcome::kOk) return;
  // Fatal, or transient retries exhausted: the warm corpus cannot be
  // brought to this epoch. Discard it — the query rebuilds cold, which
  // regenerates the same per-index streams and therefore the same seeds.
  corpus_ = RrCollection(snap.graph->num_nodes());
  result->sets_repaired = 0;
  result->degraded = DegradeMode::kColdRebuild;
}

void ImService::TopUp(const EpochGraphStore::Snapshot& snap,
                      uint64_t required, RunGuard* guard,
                      ImQueryResult* result) {
  SamplerOptions sampler_options;
  static_cast<CommonRunOptions&>(sampler_options) = options_;
  sampler_options.guard = guard;
  sampler_options.kind = options_.kind;
  RrSampler sampler(*snap.graph, sampler_options);
  StopReason stop = StopReason::kNone;
  result->retries += RetryTransient(options_.retry_backoff_seconds, [&] {
    sampler.SeekStream(corpus_.size());
    const RrBatchResult batch =
        sampler.Generate(options_.seed, required - corpus_.size(), corpus_);
    result->sets_sampled += batch.generated;
    TraceAdd(options_.trace, TraceCounter::kRrSets, batch.generated);
    stop = batch.stop;
    return IsTransientStop(stop);
  });
  // A budget trip, or a fault that outlasted every retry: serve
  // best-effort seeds from the partial prefix.
  result->stop_reason = stop;
}

ImQueryResult ImService::Query(const ImQuery& query) {
  IMBENCH_CHECK(query.k > 0);
  const EpochGraphStore::Snapshot snap = store_.Current();
  RunGuard guard(query.budget);
  ImQueryResult result;
  result.epoch = snap.epoch;

  if (corpus_epoch_ != snap.epoch) {
    MigrateCorpus(snap, &guard, &result);
    corpus_graph_ = snap.graph;
    corpus_epoch_ = snap.epoch;
    // One bump per epoch migration regardless of how many repair attempts
    // it took (the counter means "corpus moved forward", not "tried to").
    TraceAdd(options_.trace, TraceCounter::kCorpusEpochs);
  }

  const double epsilon =
      query.epsilon > 0 ? query.epsilon : options_.epsilon;
  const uint64_t required =
      RequiredSets(snap.graph->num_nodes(), query.k, epsilon);
  const uint64_t warm = corpus_.size();

  if (required > warm) {
    TopUp(snap, required, &guard, &result);
  } else if (guard.ShouldStop()) {
    result.stop_reason = guard.reason();
  }

  // Warm sets serving this query: the prefix the cover reads minus the
  // ones repair just regenerated (ids are corpus positions, so repaired
  // ids >= the prefix don't count against reuse — but tracking which is
  // which isn't worth it; sets_repaired here is a strict upper bound on
  // the repaired sets inside the prefix, keeping `reused` conservative).
  const uint64_t prefix = std::min<uint64_t>(required, warm);
  result.sets_reused =
      prefix > result.sets_repaired ? prefix - result.sets_repaired : 0;
  TraceAdd(options_.trace, TraceCounter::kRrSetsReused, result.sets_reused);

  const size_t limit =
      static_cast<size_t>(std::min<uint64_t>(required, corpus_.size()));
  result.sets_used = limit;
  result.seeds = corpus_.GreedyMaxCoverPrefix(query.k, limit,
                                              &result.covered_fraction);
  return result;
}

SealedStatus ImService::LoadCheckpoint(const std::string& path,
                                       std::string* detail) {
  const EpochGraphStore::Snapshot snap = store_.Current();
  CheckpointMeta expected;
  expected.kind = options_.kind;
  expected.seed = options_.seed;
  expected.num_nodes = snap.graph->num_nodes();
  expected.graph_fingerprint = GraphFingerprint(*snap.graph);
  RrCollection loaded(expected.num_nodes);
  const SealedStatus status =
      LoadCorpusCheckpoint(path, expected, &loaded, nullptr, detail);
  if (status == SealedStatus::kOk) {
    corpus_ = std::move(loaded);
    corpus_graph_ = snap.graph;
    corpus_epoch_ = snap.epoch;
    if (detail != nullptr) {
      *detail = "recovered " + std::to_string(corpus_.size()) + " warm sets";
    }
  }
  return status;
}

bool ImService::SaveCheckpoint(const std::string& path, std::string* detail) {
  CheckpointMeta meta;
  meta.kind = options_.kind;
  meta.seed = options_.seed;
  meta.epsilon = options_.epsilon;
  meta.epoch = corpus_epoch_;
  meta.num_nodes = corpus_graph_->num_nodes();
  meta.graph_fingerprint = GraphFingerprint(*corpus_graph_);
  return SaveCorpusCheckpoint(path, meta, corpus_, detail);
}

}  // namespace imbench
