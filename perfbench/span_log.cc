#include "span_log.h"

#include <cstdio>

#include "common/check.h"

namespace perfbench {

void SpanLog::BeginOp(std::string_view label) {
  op_labels_.emplace_back(label);
}

int32_t SpanLog::Open(std::string_view name) {
  Record record;
  record.op = op_labels_.empty() ? 0 : op_labels_.size() - 1;
  record.parent = open_.empty() ? -1 : open_.back();
  record.name = std::string(name);
  record.start_seconds = epoch_.Seconds();
  records_.push_back(std::move(record));
  const int32_t id = static_cast<int32_t>(records_.size() - 1);
  open_.push_back(id);
  return id;
}

double SpanLog::Close(int32_t id) {
  IMBENCH_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  Record& record = records_[id];
  record.end_seconds = epoch_.Seconds();
  return record.end_seconds - record.start_seconds;
}

void SpanLog::Count(std::string_view key, double value) {
  IMBENCH_CHECK(!open_.empty());
  records_[open_.back()].counts.emplace_back(std::string(key), value);
}

bool SpanLog::WriteJson(const std::string& path,
                        const std::string& provenance_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Span and op names are benchmark-chosen identifiers: no escaping needed.
  std::fprintf(f, "{\"provenance\": %s,\n \"ops\": [", provenance_json.c_str());
  for (size_t i = 0; i < op_labels_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", op_labels_[i].c_str());
  }
  std::fprintf(f, "],\n \"spans\": [\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"op\": %u, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"counts\": {",
                 i, r.op, r.parent, r.name.c_str(), r.start_seconds,
                 r.end_seconds);
    for (size_t c = 0; c < r.counts.size(); ++c) {
      std::fprintf(f, "%s\"%s\": %.17g", c == 0 ? "" : ", ",
                   r.counts[c].first.c_str(), r.counts[c].second);
    }
    std::fprintf(f, "}}%s\n", i + 1 == records_.size() ? "" : ",");
  }
  std::fprintf(f, " ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
