// Crash-safe results journal for benchmark grids.
//
// Each completed cell is appended as one flushed line keyed by the cell's
// full configuration, so a crashed / Ctrl-C'd / re-run grid replays finished
// cells from disk instead of recomputing them. The format is a plain
// tab-separated text file: human-greppable, append-only, and tolerant of a
// torn final line (a crash mid-write loses at most that one cell).
//
// Each line also carries the cell's trace counters, so a replayed cell
// reports the work its original run did (fig9_celf's lookups/iter).
#ifndef IMBENCH_FRAMEWORK_JOURNAL_H_
#define IMBENCH_FRAMEWORK_JOURNAL_H_

#include <cstdio>
#include <map>
#include <string>

#include "framework/experiment.h"

namespace imbench {

class ResultJournal {
 public:
  // Opens (creating if needed) the journal at `path`, replaying any existing
  // lines into the in-memory index. An empty path disables the journal.
  explicit ResultJournal(const std::string& path);
  ~ResultJournal();

  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  bool enabled() const { return file_ != nullptr; }

  // The replayed result for `key`, or nullptr if the cell has not finished
  // in any previous run.
  const CellResult* Find(const std::string& key) const;

  // Appends one completed cell and flushes so the line survives a crash.
  void Append(const std::string& key, const CellResult& result);

  size_t replayed_cells() const { return results_.size(); }

 private:
  std::FILE* file_ = nullptr;
  std::map<std::string, CellResult> results_;
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_JOURNAL_H_
