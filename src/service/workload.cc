#include "service/workload.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "framework/fault.h"
#include "framework/run_guard.h"

namespace imbench {

namespace {

// Parses one node id: decimal digits only, below kInvalidNode.
bool ParseNodeId(std::string_view text, NodeId* id) {
  uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() ||
      value >= kInvalidNode) {
    return false;
  }
  *id = static_cast<NodeId>(value);
  return true;
}

// Parses "source,target,weight": two node ids and a finite weight.
bool ParseArc(const std::string& token, WeightedArc* arc) {
  const size_t first = token.find(',');
  if (first == std::string::npos) return false;
  const size_t second = token.find(',', first + 1);
  if (second == std::string::npos) return false;
  const std::string_view text(token);
  const std::string weight = token.substr(second + 1);
  char* end = nullptr;
  arc->weight = std::strtod(weight.c_str(), &end);
  return ParseNodeId(text.substr(0, first), &arc->source) &&
         ParseNodeId(text.substr(first + 1, second - first - 1),
                     &arc->target) &&
         !weight.empty() && *end == '\0' && std::isfinite(arc->weight);
}

// Parses "key=value"; returns the key ("" on malformed).
std::string SplitKeyValue(const std::string& token, std::string* value) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) return "";
  *value = token.substr(eq + 1);
  return token.substr(0, eq);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendJsonQuery(std::string* log, const ImQueryResult& r) {
  std::ostringstream out;
  out << "{\"op\":\"query\",\"epoch\":" << r.epoch << ",\"seeds\":[";
  for (size_t i = 0; i < r.seeds.size(); ++i) {
    if (i > 0) out << ',';
    out << r.seeds[i];
  }
  out << "],\"sets_used\":" << r.sets_used
      << ",\"sets_sampled\":" << r.sets_sampled
      << ",\"sets_reused\":" << r.sets_reused
      << ",\"sets_repaired\":" << r.sets_repaired
      << ",\"retries\":" << r.retries << ",\"degraded\":\""
      << DegradeModeName(r.degraded)
      << "\",\"covered_fraction\":" << r.covered_fraction << ",\"stop\":\""
      << StopReasonName(r.stop_reason) << "\"}\n";
  *log += out.str();
}

void AppendJsonError(std::string* log, int line, const std::string& error,
                     const std::string& text) {
  if (log == nullptr) return;
  std::ostringstream out;
  out << "{\"op\":\"error\",\"line\":" << line << ",\"error\":\""
      << JsonEscape(error) << "\",\"text\":\"" << JsonEscape(text) << "\"}\n";
  *log += out.str();
}

// Parses one line into *op. Returns false with *message set when the line
// is malformed; a blank / comment-only line succeeds with *blank set.
bool ParseLine(const std::string& raw, WorkloadOp* op, bool* blank,
               std::string* message) {
  *blank = false;
  std::string line = raw;
  const size_t hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  std::istringstream tokens(line);
  std::string op_name;
  if (!(tokens >> op_name)) {
    *blank = true;
    return true;
  }

  if (op_name == "query") {
    op->kind = WorkloadOp::Kind::kQuery;
    bool have_k = false;
    std::string token;
    while (tokens >> token) {
      std::string value;
      const std::string key = SplitKeyValue(token, &value);
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (key.empty() || end == value.c_str() || *end != '\0') {
        *message = "bad query option '" + token + "'";
        return false;
      }
      if (key == "k") {
        op->query.k = static_cast<uint32_t>(number);
        have_k = op->query.k > 0;
      } else if (key == "eps") {
        op->query.epsilon = number;
      } else if (key == "deadline") {
        op->query.budget.deadline_seconds = number;
      } else if (key == "mem") {
        op->query.budget.max_heap_bytes =
            static_cast<uint64_t>(number * 1024.0 * 1024.0);
      } else {
        *message = "unknown query option '" + key + "'";
        return false;
      }
    }
    if (!have_k) {
      *message = "query requires k=<positive int>";
      return false;
    }
  } else if (op_name == "add" || op_name == "update") {
    op->kind = op_name == "add" ? WorkloadOp::Kind::kAddEdges
                                : WorkloadOp::Kind::kUpdateWeights;
    std::string token;
    while (tokens >> token) {
      WeightedArc arc;
      if (!ParseArc(token, &arc)) {
        *message = "bad arc '" + token +
                   "' (want source,target,weight: node ids below " +
                   std::to_string(kInvalidNode) + ", a finite weight)";
        return false;
      }
      op->arcs.push_back(arc);
    }
    if (op->arcs.empty()) {
      *message = op_name + " requires at least one arc";
      return false;
    }
  } else {
    *message = "unknown op '" + op_name + "'";
    return false;
  }
  return true;
}

}  // namespace

void ParseWorkloadLenient(const std::string& text,
                          std::vector<WorkloadOp>* ops) {
  ops->clear();
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    WorkloadOp op;
    bool blank = false;
    std::string message;
    if (!ParseLine(line, &op, &blank, &message)) {
      op = WorkloadOp();
      op.kind = WorkloadOp::Kind::kMalformed;
      op.error = std::move(message);
      op.text = line;
    } else if (blank) {
      continue;
    }
    op.line = line_number;
    ops->push_back(std::move(op));
  }
}

bool ParseWorkload(const std::string& text, std::vector<WorkloadOp>* ops,
                   std::string* error) {
  ParseWorkloadLenient(text, ops);
  for (const WorkloadOp& op : *ops) {
    if (op.kind != WorkloadOp::Kind::kMalformed) continue;
    if (error != nullptr) {
      *error = "line " + std::to_string(op.line) + ": " + op.error + " [" +
               op.text + "]";
    }
    return false;
  }
  return true;
}

bool ReadWorkloadFile(const std::string& path, std::string* text,
                      std::string* error) {
  // Fault site: the workload read fails (config volume not mounted yet, a
  // torn copy). Callers treat it like any other IO failure and may retry.
  if (FaultFire(faultsite::kWorkloadIo)) {
    if (error != nullptr) *error = "injected workload read fault";
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

ReplayResult ReplayWorkload(EpochGraphStore& store, ImService& service,
                            const std::vector<WorkloadOp>& ops,
                            std::string* log,
                            const ReplayOptions& options) {
  ReplayResult result;
  bool halted = false;
  for (const WorkloadOp& op : ops) {
    if (halted) break;
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      // Drain: no further ops start once the flag flips.
      result.interrupted = true;
      break;
    }
    switch (op.kind) {
      case WorkloadOp::Kind::kQuery: {
        ImQuery query = op.query;
        // Wire the drain flag into the query budget so a signal arriving
        // mid-query cancels it gracefully (best-effort seeds) instead of
        // waiting for it to finish.
        if (options.stop != nullptr && query.budget.cancel == nullptr) {
          query.budget.cancel = options.stop;
        }
        ImQueryResult r = service.Query(query);
        result.retries += r.retries;
        if (r.degraded != DegradeMode::kNone) ++result.degraded;
        if (log != nullptr) AppendJsonQuery(log, r);
        result.queries.push_back(std::move(r));
        break;
      }
      case WorkloadOp::Kind::kAddEdges:
      case WorkloadOp::Kind::kUpdateWeights: {
        const bool add = op.kind == WorkloadOp::Kind::kAddEdges;
        uint64_t epoch = 0;
        std::string error;
        EpochGraphStore::Status status = EpochGraphStore::Status::kFault;
        result.retries += RetryTransient(
            service.options().retry_backoff_seconds, [&] {
              status = add ? store.TryAddEdges(op.arcs, &epoch, &error)
                           : store.TryUpdateWeights(op.arcs, &epoch, &error);
              return status == EpochGraphStore::Status::kFault;
            });
        if (status != EpochGraphStore::Status::kPublished) {
          ++result.errors;
          AppendJsonError(log, op.line,
                          status == EpochGraphStore::Status::kInvalid
                              ? "invalid mutation: " + error
                              : "mutation failed: epoch rebuild fault "
                                "persisted through retries",
                          add ? "add" : "update");
          if (!options.keep_going) halted = true;
          break;
        }
        ++result.mutations;
        if (log != nullptr) {
          *log += "{\"op\":\"";
          *log += add ? "add" : "update";
          *log += "\",\"arcs\":" + std::to_string(op.arcs.size()) +
                  ",\"epoch\":" + std::to_string(epoch) + "}\n";
        }
        break;
      }
      case WorkloadOp::Kind::kMalformed: {
        ++result.errors;
        AppendJsonError(log, op.line, op.error, op.text);
        if (!options.keep_going) halted = true;
        break;
      }
    }
  }
  result.final_epoch = store.epoch();
  return result;
}

}  // namespace imbench
