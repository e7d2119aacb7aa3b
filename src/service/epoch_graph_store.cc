#include "service/epoch_graph_store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "framework/fault.h"

namespace imbench {
namespace {

// Refuses an invalid mutation, describing it in *error (when non-null).
EpochGraphStore::Status Invalid(std::string* error, const WeightedArc& arc,
                                const std::string& what) {
  if (error != nullptr) {
    *error = "arc (" + std::to_string(arc.source) + ", " +
             std::to_string(arc.target) + ") " + what;
  }
  return EpochGraphStore::Status::kInvalid;
}

}  // namespace

EpochGraphStore::EpochGraphStore(Graph graph)
    : current_(std::make_shared<const Graph>(std::move(graph))) {}

EpochGraphStore::Status EpochGraphStore::Publish(
    std::span<const WeightedArc> arcs, uint64_t* new_epoch) {
  // Fault site: building the successor graph fails. A firing mutation is
  // all-or-nothing: the epoch and touched log are untouched, and a retried
  // mutation splices the same old snapshot.
  if (FaultFire(faultsite::kEpochRebuild)) return Status::kFault;
  // Graph::WithArcs takes its edits sorted by (source, target) and unique.
  // Reversing first makes the stable sort put each pair's last arc in
  // call order at the head of its run, where std::unique keeps it.
  std::vector<WeightedArc> edits(arcs.rbegin(), arcs.rend());
  auto before = [](const WeightedArc& x, const WeightedArc& y) {
    return x.source != y.source ? x.source < y.source : x.target < y.target;
  };
  std::stable_sort(edits.begin(), edits.end(), before);
  edits.erase(std::unique(edits.begin(), edits.end(),
                          [](const WeightedArc& x, const WeightedArc& y) {
                            return x.source == y.source &&
                                   x.target == y.target;
                          }),
              edits.end());
  current_ = std::make_shared<const Graph>(current_->WithArcs(edits));

  std::vector<NodeId> touched;
  touched.reserve(edits.size());
  for (const WeightedArc& a : edits) touched.push_back(a.target);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  touched_log_.push_back(std::move(touched));
  ++epoch_;
  if (new_epoch != nullptr) *new_epoch = epoch_;
  return Status::kPublished;
}

uint64_t EpochGraphStore::AddEdges(std::span<const WeightedArc> arcs) {
  uint64_t epoch = 0;
  // Try* overwrites the message only for an invalid mutation.
  std::string error =
      "epoch rebuild failed (injected fault; use TryAddEdges under a chaos "
      "plan)";
  IMBENCH_CHECK_MSG(TryAddEdges(arcs, &epoch, &error) == Status::kPublished,
                    "AddEdges: %s", error.c_str());
  return epoch;
}

uint64_t EpochGraphStore::UpdateWeights(std::span<const WeightedArc> arcs) {
  uint64_t epoch = 0;
  std::string error =
      "epoch rebuild failed (injected fault; use TryUpdateWeights under a "
      "chaos plan)";
  IMBENCH_CHECK_MSG(
      TryUpdateWeights(arcs, &epoch, &error) == Status::kPublished,
      "UpdateWeights: %s", error.c_str());
  return epoch;
}

EpochGraphStore::Status EpochGraphStore::TryAddEdges(
    std::span<const WeightedArc> arcs, uint64_t* new_epoch,
    std::string* error) {
  const NodeId n = current_->num_nodes();
  for (const WeightedArc& a : arcs) {
    if (a.source >= n || a.target >= n) {
      return Invalid(error, a,
                     "out of range for " + std::to_string(n) + " nodes");
    }
    if (a.source == a.target) {
      return Invalid(error, a, "is a self loop");
    }
  }
  return Publish(arcs, new_epoch);
}

EpochGraphStore::Status EpochGraphStore::TryUpdateWeights(
    std::span<const WeightedArc> arcs, uint64_t* new_epoch,
    std::string* error) {
  for (const WeightedArc& a : arcs) {
    if (current_->FindEdge(a.source, a.target) == kInvalidEdge) {
      return Invalid(error, a, "is absent");
    }
  }
  return Publish(arcs, new_epoch);
}

std::vector<NodeId> EpochGraphStore::TouchedSince(uint64_t since_epoch) const {
  IMBENCH_CHECK(since_epoch <= epoch_);
  std::vector<NodeId> touched;
  for (uint64_t e = since_epoch; e < epoch_; ++e) {
    touched.insert(touched.end(), touched_log_[e].begin(),
                   touched_log_[e].end());
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

}  // namespace imbench
