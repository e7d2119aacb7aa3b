// Mutable graph store with immutable snapshots, the graph half of the
// always-on query service (service/im_service.h).
//
// The store owns the current weighted graph behind a shared_ptr<const
// Graph>. Readers take a Snapshot — a (graph handle, epoch) pair — and
// keep working against it for as long as they hold the handle; mutations
// never touch a published graph, they build a successor and swap the
// pointer, advancing the epoch counter. That gives snapshot isolation with
// zero read-side synchronization: a query that started on epoch e computes
// against exactly epoch e's topology and weights even if the store has
// moved on.
//
// Each epoch transition also logs which nodes had their *in-edges* touched
// (targets of added edges / weight updates). An RR set's sampled
// membership depends only on the in-edges of its member nodes, so
// TouchedSince(e) is exactly the invalidation query the warm-corpus repair
// path needs: sets containing none of those nodes are bit-identical on the
// old and new graph.
#ifndef IMBENCH_SERVICE_EPOCH_GRAPH_STORE_H_
#define IMBENCH_SERVICE_EPOCH_GRAPH_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace imbench {

class EpochGraphStore {
 public:
  // An immutable view: `graph` stays valid (and unchanged) for as long as
  // the handle is held, regardless of later mutations.
  struct Snapshot {
    std::shared_ptr<const Graph> graph;
    uint64_t epoch = 0;
  };

  // Takes ownership of the initial graph; it becomes epoch 0. Collapsed
  // parallel-arc multiplicities are preserved across mutations: a
  // successor is the old CSR spliced with the mutation (Graph::WithArcs),
  // so existing edges keep their multiplicity and added ones get 1.
  explicit EpochGraphStore(Graph graph);

  Snapshot Current() const { return {current_, epoch_}; }
  uint64_t epoch() const { return epoch_; }

  // Adds weighted edges between existing nodes (the node set is fixed for
  // the store's lifetime: RR-set roots are drawn uniformly from [0, n), so
  // a stable n is what keeps warm-corpus repair byte-identical to a cold
  // rebuild). An arc that already exists is treated as a weight update.
  // Self loops are rejected, duplicate arcs within one call keep the last
  // weight. Returns the new epoch.
  uint64_t AddEdges(std::span<const WeightedArc> arcs);

  // Updates the weights of existing edges; every (source, target) must be
  // present. Returns the new epoch.
  uint64_t UpdateWeights(std::span<const WeightedArc> arcs);

  // Fault-tolerant variants. Publish is all-or-nothing: on any status but
  // kPublished the store stays exactly on its old epoch, so readers never
  // see a half-built successor. kFault is the `epoch_rebuild` fault site
  // (transient: ReplayWorkload retries it with backoff); kInvalid is a
  // mutation no retry can apply — a node out of range or a self loop for
  // TryAddEdges, an absent edge for TryUpdateWeights — described in *error
  // when non-null. On kPublished *new_epoch (when non-null) receives the
  // new epoch. The plain AddEdges/UpdateWeights CHECK-fail on anything
  // but kPublished.
  enum class Status { kPublished, kFault, kInvalid };
  Status TryAddEdges(std::span<const WeightedArc> arcs,
                     uint64_t* new_epoch = nullptr,
                     std::string* error = nullptr);
  Status TryUpdateWeights(std::span<const WeightedArc> arcs,
                          uint64_t* new_epoch = nullptr,
                          std::string* error = nullptr);

  // Nodes whose in-edges changed by any transition after `since_epoch`,
  // sorted ascending and deduplicated. since_epoch must be <= epoch();
  // TouchedSince(epoch()) is empty.
  std::vector<NodeId> TouchedSince(uint64_t since_epoch) const;

 private:
  // Publishes the current graph spliced with `arcs` as the new current
  // graph, recording the arcs' targets (whose in-edges changed) for the
  // transition. Returns kFault, with the store untouched, when the
  // epoch_rebuild fault site fires.
  Status Publish(std::span<const WeightedArc> arcs, uint64_t* new_epoch);

  std::shared_ptr<const Graph> current_;
  uint64_t epoch_ = 0;
  // touched_log_[e] = targets touched by the transition e -> e+1.
  std::vector<std::vector<NodeId>> touched_log_;
};

}  // namespace imbench

#endif  // IMBENCH_SERVICE_EPOCH_GRAPH_STORE_H_
