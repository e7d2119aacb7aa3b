#include "framework/journal.h"

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

namespace imbench {
namespace {

// Field order of one journal line (tab-separated):
//   key, status, stop_reason, select_seconds, peak_heap_bytes,
//   spread_mean, spread_stddev, spread_simulations, internal_estimate,
//   seeds (comma-separated node ids, "-" when empty),
//   counters (kNumTraceCounters comma-separated values, TraceCounter order)
constexpr size_t kFieldCount = 11;

bool ParseStatus(const std::string& name, CellResult::Status& out) {
  // Inverse of CellStatusName, so the names live in one table. The
  // enumerators run from 0 without gaps; the first value past the last one
  // is the switch's "?".
  for (int v = 0;; ++v) {
    const auto status = static_cast<CellResult::Status>(v);
    const std::string_view status_name = CellStatusName(status);
    if (status_name == "?") return false;
    if (status_name == name) {
      out = status;
      return true;
    }
  }
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

// Parses one journal line; returns false (skipping the line) on any
// malformed field so a torn tail or a hand-edited file degrades to
// "recompute that cell" rather than aborting the run.
bool ParseLine(const std::string& line, std::string& key, CellResult& result) {
  const std::vector<std::string> fields = SplitTabs(line);
  if (fields.size() != kFieldCount) return false;
  key = fields[0];
  if (key.empty()) return false;
  result = CellResult();
  if (!ParseStatus(fields[1], result.status)) return false;
  if (!ParseStopReason(fields[2], &result.stop_reason)) return false;

  char* end = nullptr;
  result.select_seconds = std::strtod(fields[3].c_str(), &end);
  if (end == fields[3].c_str()) return false;
  result.peak_heap_bytes = std::strtoull(fields[4].c_str(), &end, 10);
  if (end == fields[4].c_str()) return false;
  result.spread.mean = std::strtod(fields[5].c_str(), &end);
  if (end == fields[5].c_str()) return false;
  result.spread.stddev = std::strtod(fields[6].c_str(), &end);
  if (end == fields[6].c_str()) return false;
  result.spread.simulations =
      static_cast<uint32_t>(std::strtoul(fields[7].c_str(), &end, 10));
  if (end == fields[7].c_str()) return false;
  result.internal_estimate = std::strtod(fields[8].c_str(), &end);
  if (end == fields[8].c_str()) return false;

  if (fields[9] != "-") {
    const char* cursor = fields[9].c_str();
    while (*cursor != '\0') {
      const unsigned long long id = std::strtoull(cursor, &end, 10);
      if (end == cursor) return false;
      result.seeds.push_back(static_cast<NodeId>(id));
      cursor = (*end == ',') ? end + 1 : end;
      if (end == cursor && *end != '\0') return false;
    }
  }

  const char* cursor = fields[10].c_str();
  for (int c = 0; c < kNumTraceCounters; ++c) {
    if (c > 0 && *cursor++ != ',') return false;
    result.counters[c] = std::strtoull(cursor, &end, 10);
    if (end == cursor) return false;
    cursor = end;
  }
  return *cursor == '\0';
}

}  // namespace

ResultJournal::ResultJournal(const std::string& path) {
  if (path.empty()) return;
  // Replay pass: read whatever previous runs completed.
  if (std::FILE* existing = std::fopen(path.c_str(), "r")) {
    std::string line;
    char buffer[4096];
    while (std::fgets(buffer, sizeof(buffer), existing) != nullptr) {
      line += buffer;
      if (line.empty() || line.back() != '\n') continue;  // long line: keep
      line.pop_back();
      if (!line.empty() && line.front() != '#') {
        std::string key;
        CellResult result;
        if (ParseLine(line, key, result)) {
          results_[key] = std::move(result);
        }
      }
      line.clear();
    }
    std::fclose(existing);
  }
  const bool fresh = results_.empty();
  file_ = std::fopen(path.c_str(), "a");
  if (file_ != nullptr && fresh) {
    std::fprintf(file_,
                 "# imbench results journal: key status reason seconds "
                 "peak_bytes mean stddev sims internal seeds counters\n");
    std::fflush(file_);
  }
}

ResultJournal::~ResultJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

const CellResult* ResultJournal::Find(const std::string& key) const {
  const auto it = results_.find(key);
  return it != results_.end() ? &it->second : nullptr;
}

void ResultJournal::Append(const std::string& key, const CellResult& result) {
  if (file_ == nullptr) return;
  std::string seeds;
  for (const NodeId s : result.seeds) {
    if (!seeds.empty()) seeds += ',';
    seeds += std::to_string(s);
  }
  std::string counters;
  for (const uint64_t count : result.counters) {
    if (!counters.empty()) counters += ',';
    counters += std::to_string(count);
  }
  std::fprintf(file_,
               "%s\t%s\t%s\t%.17g\t%" PRIu64
               "\t%.17g\t%.17g\t%u\t%.17g\t%s\t%s\n",
               key.c_str(), CellStatusName(result.status),
               StopReasonName(result.stop_reason), result.select_seconds,
               result.peak_heap_bytes, result.spread.mean,
               result.spread.stddev, result.spread.simulations,
               result.internal_estimate,
               seeds.empty() ? "-" : seeds.c_str(), counters.c_str());
  // One flush per cell: a crash between cells never loses a finished one.
  std::fflush(file_);
  results_[key] = result;
}

}  // namespace imbench
