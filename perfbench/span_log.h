// Per-layer spans the benchmark records around its own calls into the
// imbench modules (graph, rr, cover, mc, algo, service).
//
// Every span has a name, a start and an end on one monotonic clock, the
// span that was open when it started (its parent), and the id of the op it
// belongs to: all spans opened between two BeginOp() calls share one op id.
// Work counts (sets sampled, edges examined, ...) are attached to the span
// of the call that did the work, so per-unit ratios are taken where the
// work happens. Spans stay in memory and are written once, at exit.
//
// A null SpanLog disables recording but not timing: LayerSpan still returns
// its duration, so the untraced run measures with the same clock and the
// same call boundaries as the traced one.
#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace perfbench {

class SpanLog {
 public:
  // Starts a new op; later spans carry its id until the next BeginOp().
  void BeginOp(std::string_view label);

  // Opens a span whose parent is the innermost open span; returns its id.
  int32_t Open(std::string_view name);
  // Closes span `id`, which must be the innermost open span; returns its
  // duration in seconds.
  double Close(int32_t id);
  // Attaches a work count to the innermost open span.
  void Count(std::string_view key, double value);

  // Writes {"provenance": <provenance_json>, "ops": [...], "spans": [...]}.
  bool WriteJson(const std::string& path,
                 const std::string& provenance_json) const;

 private:
  struct Record {
    uint32_t op = 0;
    int32_t parent = -1;
    std::string name;
    double start_seconds = 0;
    double end_seconds = -1;  // < 0 while open
    std::vector<std::pair<std::string, double>> counts;
  };

  imbench::Timer epoch_;
  std::vector<Record> records_;
  std::vector<int32_t> open_;
  std::vector<std::string> op_labels_;
};

// Times one call into a layer. Records a span when `log` is non-null.
class LayerSpan {
 public:
  LayerSpan(SpanLog* log, std::string_view name)
      : log_(log), id_(log != nullptr ? log->Open(name) : -1) {}
  ~LayerSpan() { End(); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  // Ends the span (idempotent) and returns its duration in seconds.
  double End() {
    if (!ended_) {
      seconds_ = timer_.Seconds();
      if (log_ != nullptr) log_->Close(id_);
      ended_ = true;
    }
    return seconds_;
  }

  void Count(std::string_view key, double value) {
    if (log_ != nullptr && !ended_) log_->Count(key, value);
  }

 private:
  SpanLog* log_;
  int32_t id_;
  imbench::Timer timer_;
  bool ended_ = false;
  double seconds_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
