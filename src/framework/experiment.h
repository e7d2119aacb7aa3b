// Experiment runner used by the figure/table harnesses: caches weighted
// dataset graphs, runs (algorithm, dataset, model, k) cells under enforced
// time / memory / cancellation budgets, and measures time / peak memory /
// spread uniformly. With a journal configured, finished cells are persisted
// and replayed across process restarts (crash-safe resumable grids).
#ifndef IMBENCH_FRAMEWORK_EXPERIMENT_H_
#define IMBENCH_FRAMEWORK_EXPERIMENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithm.h"
#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "framework/registry.h"
#include "framework/trace.h"
#include "graph/weights.h"

namespace imbench {

class ResultJournal;

// Result of one benchmark cell.
struct CellResult {
  enum class Status {
    kOk,
    kDnf,         // exceeded the time budget (paper: "DNF")
    kOverBudget,  // exceeded the memory budget (paper: "Crashed")
    kUnsupported, // model not supported by the technique (Table 5)
    kCancelled    // run cancelled (Ctrl-C) while this cell was in flight
  };

  Status status = Status::kOk;
  std::vector<NodeId> seeds;
  SpreadEstimate spread;            // MC-evaluated σ(S)
  double internal_estimate = 0;     // the algorithm's own (extrapolated) σ
  double select_seconds = 0;
  uint64_t peak_heap_bytes = 0;
  // Why selection stopped early (kNone for a complete run). Finer-grained
  // than `status`: a DNF cell still carries its best-effort partial seeds.
  StopReason stop_reason = StopReason::kNone;
  // Work the selection did: the trace counters' delta over Select (the
  // evaluation pass is not included). Index with TraceCounter.
  TraceCounterArray counters{};

  bool ok() const { return status == Status::kOk; }
};

const char* CellStatusName(CellResult::Status status);

// Shared configuration for a harness run. The common run controls come
// from CommonRunOptions (harness seed default is 7, not 1); the `guard`
// and `trace` pointers inherited from the base are *not* consumed here —
// the workbench builds one RunGuard per cell from the budget fields below
// and owns its Trace when trace_out_path is set.
struct WorkbenchOptions : CommonRunOptions {
  WorkbenchOptions() { seed = 7; }

  DatasetScale scale = DatasetScale::kBench;
  // r for final spread evaluation. The paper uses 10K; harness defaults
  // lower it so every binary finishes quickly (override with --mc).
  uint32_t evaluation_simulations = 1000;
  // Enforced per-cell selection deadline: the run guard stops selection
  // cooperatively once it is exceeded and the cell is reported DNF with its
  // partial seeds. The paper's cutoff is 40 hours; harnesses use seconds.
  double time_budget_seconds = 120.0;
  // Per-cell heap growth cap in bytes (0 = unlimited). Tripping it reports
  // the cell as Crashed, mirroring the paper's 256 GB limit.
  uint64_t memory_budget_bytes = 0;
  // External cancel flag (e.g. SigintCancelFlag()). When it goes true the
  // in-flight cell drains and is reported kCancelled.
  const std::atomic<bool>* cancel = nullptr;
  // Path of the results journal; empty disables journaling.
  std::string journal_path;
  // When non-empty the workbench owns a Trace, wraps every cell in a
  // "cell" span (selection phases nested inside, plus an "evaluate" span
  // for the MC pass), and writes the per-phase JSON here on destruction.
  // Without it each cell selects under a Trace of its own, so
  // CellResult::counters is filled either way.
  std::string trace_out_path;
};

class Workbench {
 public:
  explicit Workbench(const WorkbenchOptions& options);
  ~Workbench();

  const WorkbenchOptions& options() const { return options_; }

  // True once the external cancel flag has been raised; grid drivers use
  // this to stop launching new cells.
  bool cancelled() const;

  // The workbench-owned trace (null unless trace_out_path was set).
  Trace* trace() { return trace_.get(); }

  // The weighted graph for (dataset, model); built and cached on demand.
  // `ic_probability` applies to WeightModel::kIcConstant only.
  const Graph& GetGraph(const std::string& dataset, WeightModel model,
                        double ic_probability = 0.1);

  // Journal key for a cell: every input that affects the result, so a
  // journal replayed under different settings never aliases.
  std::string CellKey(const std::string& algorithm, const std::string& dataset,
                      WeightModel model, uint32_t k, double parameter,
                      double ic_probability = 0.1) const;

  // Runs one cell. `parameter` NaN selects the Table 2 optimum for the
  // model (falling back to the author default).
  CellResult RunCell(const std::string& algorithm, const std::string& dataset,
                     WeightModel model, uint32_t k,
                     double parameter = kDefaultParameter,
                     double ic_probability = 0.1);

  // As above against an explicit algorithm instance (for option variants
  // the registry does not expose, e.g. IMRank stopping criteria). Pass the
  // CellKey-derived `journal_key` to make such cells resumable too; an
  // empty key opts the cell out of the journal.
  CellResult RunCell(ImAlgorithm& algorithm, const std::string& dataset,
                     WeightModel model, uint32_t k,
                     double ic_probability = 0.1,
                     const std::string& journal_key = std::string());

 private:
  WorkbenchOptions options_;
  std::map<std::string, Graph> graphs_;  // key: dataset "/" model
  std::unique_ptr<ResultJournal> journal_;
  std::unique_ptr<Trace> trace_;
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_EXPERIMENT_H_
