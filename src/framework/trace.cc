#include "framework/trace.h"

#include <cinttypes>
#include <cstring>

#include "common/check.h"
#include "framework/memory.h"

namespace imbench {
namespace {

constexpr const char* kCounterNames[kNumTraceCounters] = {
    "rr_sets",   "rr_edges_examined",   "simulations",    "node_lookups",
    "queue_reevaluations", "snapshots", "scoring_rounds", "guard_polls",
    "rr_sets_repaired",    "rr_sets_reused",              "corpus_epochs",
    "fused_blocks",        "bnb_nodes_expanded",          "bnb_pruned",
    "graph_bytes_mapped",  "neighbor_blocks_decoded",
};

void AppendEscaped(std::string& out, std::string_view text) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendDouble(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

void AppendUint(std::string& out, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  out += buf;
}

void AppendInt(std::string& out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out += buf;
}

// "+12.3 MiB" / "-384 B" style signed byte count for the human table.
std::string HumanBytes(int64_t bytes) {
  const char* sign = bytes < 0 ? "-" : "+";
  double mag = bytes < 0 ? -static_cast<double>(bytes) : bytes;
  const char* unit = "B";
  if (mag >= 1024.0 * 1024.0 * 1024.0) {
    mag /= 1024.0 * 1024.0 * 1024.0;
    unit = "GiB";
  } else if (mag >= 1024.0 * 1024.0) {
    mag /= 1024.0 * 1024.0;
    unit = "MiB";
  } else if (mag >= 1024.0) {
    mag /= 1024.0;
    unit = "KiB";
  }
  char buf[32];
  if (std::strcmp(unit, "B") == 0) {
    std::snprintf(buf, sizeof(buf), "%s%.0f %s", sign, mag, unit);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.1f %s", sign, mag, unit);
  }
  return buf;
}

}  // namespace

const char* TraceCounterName(TraceCounter counter) {
  return kCounterNames[static_cast<int>(counter)];
}

int32_t Trace::OpenSpan(std::string_view name) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  TraceSpan span;
  span.name.assign(name.data(), name.size());
  span.parent = stack_.empty() ? -1 : stack_.back().span;
  span.depth = static_cast<int32_t>(stack_.size());
  span.start_seconds = timer_.Seconds();
  spans_.push_back(std::move(span));
  OpenFrame frame;
  frame.span = id;
  frame.totals_at_open = totals_;
  frame.heap_at_open = CurrentHeapBytes();
  stack_.push_back(frame);
  return id;
}

void Trace::CloseSpan(int32_t id) {
  IMBENCH_CHECK_MSG(!stack_.empty(), "Trace: CloseSpan with no open span");
  const OpenFrame& frame = stack_.back();
  IMBENCH_CHECK_MSG(frame.span == id,
                    "Trace: spans must close LIFO (innermost first)");
  TraceSpan& span = spans_[id];
  span.duration_seconds = timer_.Seconds() - span.start_seconds;
  span.heap_delta_bytes = static_cast<int64_t>(CurrentHeapBytes()) -
                          static_cast<int64_t>(frame.heap_at_open);
  for (int c = 0; c < kNumTraceCounters; ++c) {
    span.counters[c] = totals_[c] - frame.totals_at_open[c];
  }
  span.closed = true;
  stack_.pop_back();
}

std::string Trace::ToJson(bool include_timings) const {
  IMBENCH_CHECK_MSG(stack_.empty(), "Trace: ToJson with open spans");
  std::string out;
  out += "{\n  \"version\": 1,\n";
  out += "  \"counters\": {";
  for (int c = 0; c < kNumTraceCounters; ++c) {
    out += c == 0 ? "\n" : ",\n";
    out += "    ";
    AppendEscaped(out, kCounterNames[c]);
    out += ": ";
    AppendUint(out, totals_[c]);
  }
  out += "\n  },\n  \"phases\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    AppendEscaped(out, span.name);
    out += ", \"parent\": ";
    AppendInt(out, span.parent);
    out += ", \"depth\": ";
    AppendInt(out, span.depth);
    out += ", \"counters\": {";
    bool first = true;
    for (int c = 0; c < kNumTraceCounters; ++c) {
      if (span.counters[c] == 0) continue;
      if (!first) out += ", ";
      first = false;
      AppendEscaped(out, kCounterNames[c]);
      out += ": ";
      AppendUint(out, span.counters[c]);
    }
    out += "}}";
  }
  out += "\n  ]";
  if (include_timings) {
    out += ",\n  \"timings\": {\n    \"elapsed_seconds\": ";
    AppendDouble(out, timer_.Seconds());
    out += ",\n    \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const TraceSpan& span = spans_[i];
      out += i == 0 ? "\n" : ",\n";
      out += "      {\"start_seconds\": ";
      AppendDouble(out, span.start_seconds);
      out += ", \"duration_seconds\": ";
      AppendDouble(out, span.duration_seconds);
      out += ", \"heap_delta_bytes\": ";
      AppendInt(out, span.heap_delta_bytes);
      out += "}";
    }
    out += "\n    ]\n  }";
  }
  out += "\n}\n";
  return out;
}

bool Trace::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson(/*include_timings=*/true);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok && written != json.size()) std::fclose(f);
  return ok;
}

void Trace::PrintTable(std::FILE* out) const {
  std::fprintf(out, "%-32s %12s %12s  %s\n", "phase", "time", "heap",
               "counters");
  for (const TraceSpan& span : spans_) {
    std::string label(static_cast<size_t>(span.depth) * 2, ' ');
    label += span.name;
    char time_buf[32];
    std::snprintf(time_buf, sizeof(time_buf), "%.3f s", span.duration_seconds);
    std::string counters;
    for (int c = 0; c < kNumTraceCounters; ++c) {
      if (span.counters[c] == 0) continue;
      if (!counters.empty()) counters += " ";
      counters += kCounterNames[c];
      counters += "=";
      AppendUint(counters, span.counters[c]);
    }
    std::fprintf(out, "%-32s %12s %12s  %s\n", label.c_str(), time_buf,
                 HumanBytes(span.heap_delta_bytes).c_str(), counters.c_str());
  }
}

}  // namespace imbench
