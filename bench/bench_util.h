// Shared plumbing for the figure/table harnesses: common flags, list
// parsing, and result-cell formatting.
//
// Every harness accepts:
//   --scale=tiny|bench|paper   dataset size (default bench)
//   --seed=N                   RNG seed for graphs and algorithms
//   --mc=N                     MC simulations for final spread evaluation
//   --budget=SECONDS           per-cell time budget, 0 = unlimited (over=>DNF)
//   --mem-budget=MB            enforced per-cell heap cap (over => Crashed)
//   --threads=N                worker threads for the parallel sampling and
//                              evaluation stages (1 = sequential, 0 = all
//                              hardware); results are identical either way
//   --journal=PATH             results journal: finished cells are appended
//                              and replayed on restart (crash-safe resume)
//   --trace-out=PATH           per-phase trace (spans + counters) written
//                              as JSON when the harness exits
//   --full                     paper-fidelity settings (slow!)
//   --csv                      mirror tables as CSV to stdout
//
// Ctrl-C is graceful: the in-flight cell drains through the run guard, the
// journal is flushed, and the harness prints whatever cells completed. A
// second Ctrl-C kills the process immediately.
#ifndef IMBENCH_BENCH_BENCH_UTIL_H_
#define IMBENCH_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "framework/experiment.h"
#include "framework/run_guard.h"

namespace imbench::benchutil {

struct CommonFlags {
  std::string* scale;
  int64_t* seed;
  int64_t* mc;
  double* budget;
  double* mem_budget;
  int64_t* threads;
  std::string* journal;
  std::string* trace_out;
  bool* full;
  bool* csv;
};

inline CommonFlags AddCommonFlags(FlagSet& flags, int64_t default_mc = 1000,
                                  double default_budget = 120.0,
                                  const char* default_scale = "bench") {
  CommonFlags c;
  c.scale = flags.AddString("scale", default_scale,
                            "dataset scale: tiny|bench|paper");
  c.seed = flags.AddInt("seed", 7, "RNG seed");
  c.mc = flags.AddInt("mc", default_mc, "MC simulations for spread evaluation");
  c.budget = flags.AddDouble(
      "budget", default_budget,
      "enforced per-cell time budget in seconds, 0 = unlimited (over => "
      "DNF with partial seeds)");
  c.mem_budget = flags.AddDouble(
      "mem-budget", 0.0,
      "enforced per-cell heap cap in MB, 0 = unlimited (over => Crashed)");
  c.threads = flags.AddInt(
      "threads", 1,
      "worker threads for RR-set generation and MC evaluation "
      "(1 = sequential, 0 = all hardware); results do not depend on it");
  c.journal = flags.AddString(
      "journal", "",
      "results journal path: completed cells are appended and replayed on "
      "restart, so interrupted grids resume where they stopped");
  c.trace_out = flags.AddString(
      "trace-out", "",
      "write the harness-wide per-phase trace (spans + counters) as JSON "
      "to this file when the run finishes");
  c.full = flags.AddBool("full", false,
                         "paper-fidelity settings: all datasets, k to 200, "
                         "Table 2 parameters, 10K evaluation simulations");
  c.csv = flags.AddBool("csv", false, "also print tables as CSV");
  return c;
}

inline WorkbenchOptions ToWorkbenchOptions(const CommonFlags& c) {
  WorkbenchOptions options;
  options.scale = ParseDatasetScale(*c.scale);
  options.seed = static_cast<uint64_t>(*c.seed);
  options.evaluation_simulations =
      *c.full ? kReferenceSimulations : static_cast<uint32_t>(*c.mc);
  options.time_budget_seconds = *c.budget;
  options.memory_budget_bytes =
      static_cast<uint64_t>(*c.mem_budget * 1024.0 * 1024.0);
  options.threads = static_cast<uint32_t>(*c.threads);
  options.journal_path = *c.journal;
  options.trace_out_path = *c.trace_out;
  // Side effect: from here on the first Ctrl-C drains the current cell
  // instead of killing the process.
  InstallSigintCancel();
  options.cancel = SigintCancelFlag();
  return options;
}

inline std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> items;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) items.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

inline std::vector<uint32_t> ParseKList(const std::string& csv) {
  std::vector<uint32_t> ks;
  for (const std::string& item : SplitCsv(csv)) {
    ks.push_back(static_cast<uint32_t>(std::stoul(item)));
  }
  return ks;
}

// Spread cell: the MC-evaluated mean, or the failure status.
inline std::string SpreadCell(const CellResult& cell) {
  if (cell.status == CellResult::Status::kUnsupported) return "NA";
  std::string value = TextTable::Num(cell.spread.mean, 1);
  if (!cell.ok()) {
    value += " (";
    value += CellStatusName(cell.status);
    value += ")";
  }
  return value;
}

inline std::string TimeCell(const CellResult& cell) {
  if (cell.status == CellResult::Status::kUnsupported) return "NA";
  std::string value = TextTable::Secs(cell.select_seconds);
  if (cell.status == CellResult::Status::kDnf) value += " (DNF)";
  return value;
}

inline std::string MemoryCell(const CellResult& cell) {
  if (cell.status == CellResult::Status::kUnsupported) return "NA";
  std::string value = TextTable::MegaBytes(cell.peak_heap_bytes);
  if (cell.status == CellResult::Status::kOverBudget) value += " (Crashed)";
  return value;
}

inline void EmitTable(const TextTable& table, bool csv) {
  table.Print();
  if (csv) {
    std::printf("\n-- csv --\n%s", table.ToCsv().c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

inline void Banner(const char* title) {
  std::printf("=== %s ===\n", title);
}

}  // namespace imbench::benchutil

#endif  // IMBENCH_BENCH_BENCH_UTIL_H_
