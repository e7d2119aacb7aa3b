// The pre-flattening RR corpus: vector-of-vectors sets plus an
// incrementally-maintained vector-of-vectors inverted index, with the
// original lazy-heap greedy max cover. Kept verbatim as a measurement and
// differential-test baseline for the flat-arena RrCollection — it is NOT
// part of the library and nothing in src/ may include it.
//
// Both layouts must produce byte-identical corpora, greedy seeds and
// covered fractions for the same input; tests/rr_layout_test.cc holds the
// differential checks and micro_selection's BM_FloorRrCorpus* rows the
// timing and footprint comparison CI gates.
#ifndef IMBENCH_BENCH_LEGACY_RR_CORPUS_H_
#define IMBENCH_BENCH_LEGACY_RR_CORPUS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"

namespace imbench {

class LegacyRrCorpus {
 public:
  explicit LegacyRrCorpus(NodeId num_nodes)
      : num_nodes_(num_nodes), sets_containing_(num_nodes) {}

  void Add(std::vector<NodeId> set) {
    const uint32_t id = static_cast<uint32_t>(sets_.size());
    for (const NodeId v : set) {
      IMBENCH_CHECK(v < num_nodes_);
      sets_containing_[v].push_back(id);
    }
    total_entries_ += set.size();
    sets_.push_back(std::move(set));
  }

  void AppendSet(std::span<const NodeId> set) {
    Add(std::vector<NodeId>(set.begin(), set.end()));
  }

  void TruncateTo(size_t n) {
    while (sets_.size() > n) {
      const uint32_t id = static_cast<uint32_t>(sets_.size() - 1);
      for (const NodeId v : sets_.back()) {
        IMBENCH_CHECK(!sets_containing_[v].empty() &&
                      sets_containing_[v].back() == id);
        sets_containing_[v].pop_back();
      }
      total_entries_ -= sets_.back().size();
      sets_.pop_back();
    }
  }

  size_t size() const { return sets_.size(); }
  uint64_t TotalEntries() const { return total_entries_; }
  std::span<const NodeId> Set(size_t i) const { return sets_[i]; }

  uint64_t MemoryBytes() const {
    uint64_t bytes = 0;
    for (const auto& s : sets_) bytes += s.capacity() * sizeof(NodeId);
    for (const auto& s : sets_containing_) {
      bytes += s.capacity() * sizeof(uint32_t);
    }
    bytes += sets_.capacity() * sizeof(std::vector<NodeId>);
    bytes += sets_containing_.capacity() * sizeof(std::vector<uint32_t>);
    bytes += sizeof(*this);
    return bytes;
  }

  std::vector<NodeId> GreedyMaxCover(uint32_t k,
                                     double* covered_fraction = nullptr) const {
    std::vector<uint32_t> degree(num_nodes_, 0);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      degree[v] = static_cast<uint32_t>(sets_containing_[v].size());
    }
    std::vector<bool> covered(sets_.size(), false);
    std::vector<bool> chosen(num_nodes_, false);

    std::vector<std::pair<uint32_t, NodeId>> heap;
    heap.reserve(num_nodes_);
    for (NodeId v = 0; v < num_nodes_; ++v) {
      if (degree[v] > 0) heap.emplace_back(degree[v], v);
    }
    std::make_heap(heap.begin(), heap.end());

    std::vector<NodeId> seeds;
    uint64_t covered_count = 0;
    while (seeds.size() < k) {
      NodeId best = kInvalidNode;
      while (!heap.empty()) {
        auto [stale_degree, v] = heap.front();
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
        if (chosen[v]) continue;
        if (stale_degree != degree[v]) {
          if (degree[v] > 0) {
            heap.emplace_back(degree[v], v);
            std::push_heap(heap.begin(), heap.end());
          }
          continue;
        }
        best = v;
        break;
      }
      if (best == kInvalidNode) {
        for (NodeId v = 0; v < num_nodes_ && seeds.size() < k; ++v) {
          if (!chosen[v]) {
            chosen[v] = true;
            seeds.push_back(v);
          }
        }
        break;
      }
      chosen[best] = true;
      seeds.push_back(best);
      for (const uint32_t set_id : sets_containing_[best]) {
        if (covered[set_id]) continue;
        covered[set_id] = true;
        ++covered_count;
        for (const NodeId member : sets_[set_id]) --degree[member];
      }
    }
    if (covered_fraction != nullptr) {
      *covered_fraction =
          sets_.empty() ? 0.0
                        : static_cast<double>(covered_count) /
                              static_cast<double>(sets_.size());
    }
    return seeds;
  }

 private:
  NodeId num_nodes_;
  std::vector<std::vector<NodeId>> sets_;
  std::vector<std::vector<uint32_t>> sets_containing_;  // node -> set ids
  uint64_t total_entries_ = 0;
};

}  // namespace imbench

#endif  // IMBENCH_BENCH_LEGACY_RR_CORPUS_H_
