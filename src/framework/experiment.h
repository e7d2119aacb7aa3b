// The paper's decoupled measurement (Sec. 5.1), made once: MeasureCell is
// the only code that selects seeds under a run guard and a meter and then
// scores them with one MC pass. The Workbench runs the harnesses' cells
// through it, caching weighted graphs and, with a journal configured,
// persisting finished cells for crash-safe resumable grids.
#ifndef IMBENCH_FRAMEWORK_EXPERIMENT_H_
#define IMBENCH_FRAMEWORK_EXPERIMENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/algorithm.h"
#include "common/run_options.h"
#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "framework/registry.h"
#include "framework/trace.h"
#include "graph/graph_view.h"
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

// The controls of one measured cell. The inherited `guard` is not
// consumed: MeasureCell arms its own from the budget fields below.
struct CellOptions : CommonRunOptions {
  // r for final spread evaluation. The paper uses 10K; harness defaults
  // lower it so every binary finishes quickly (override with --mc).
  uint32_t evaluation_simulations = 1000;
  // Enforced selection deadline, 0 = unlimited. On expiry the cell is DNF
  // with its partial seeds. The paper's cutoff is 40 hours.
  double time_budget_seconds = 120.0;
  // Selection heap growth cap in bytes (0 = unlimited). Tripping it
  // reports the cell as Crashed, mirroring the paper's 256 GB limit.
  uint64_t memory_budget_bytes = 0;
  // External cancel flag (e.g. SigintCancelFlag()). When it goes true the
  // in-flight selection drains and the cell is reported kCancelled.
  const std::atomic<bool>* cancel = nullptr;
};

// The MC seed of every cell's evaluation pass.
inline uint64_t EvaluationSeed(uint64_t seed) {
  return seed ^ 0x5f12ead0c0ffeeULL;
}

// Selects k seeds with `algorithm` on `graph` (weights matching `kind`)
// under a RunMeter and a RunGuard, then, unless cancelled, evaluates them
// on EvaluationSeed(options.seed) under an "evaluate" span. It opens no
// enclosing span. Without options.trace it selects under a Trace of its
// own, so `counters` is filled either way.
CellResult MeasureCell(ImAlgorithm& algorithm, const GraphView& graph,
                       DiffusionKind kind, uint32_t k,
                       const CellOptions& options);

// A harness run's configuration (seed default 7, not 1). The workbench
// sets `pool` and `trace` to the ones it owns.
struct WorkbenchOptions : CellOptions {
  WorkbenchOptions() { seed = 7; }

  DatasetScale scale = DatasetScale::kBench;
  // Path of the results journal; empty disables journaling.
  std::string journal_path;
  // When non-empty the workbench owns a Trace, wraps every cell in a
  // "cell" span (selection phases nested inside, plus an "evaluate" span
  // for the MC pass), and writes the per-phase JSON here on destruction.
  std::string trace_out_path;
};

class Workbench {
 public:
  explicit Workbench(const WorkbenchOptions& options);
  ~Workbench();

  // Every cell's controls, the workbench's pool and trace included.
  const WorkbenchOptions& options() const { return options_; }

  // True once the external cancel flag has been raised; grid drivers use
  // this to stop launching new cells.
  bool cancelled() const;

  // The weighted graph for (dataset, model): MakeWeightedDataset at the
  // workbench's scale and seed, built once and cached. `ic_probability`
  // applies to WeightModel::kIcConstant only.
  const Graph& GetGraph(const std::string& dataset, WeightModel model,
                        double ic_probability = 0.1);

  // Journal key for a cell: every input that affects the result, so a
  // journal replayed under different settings never aliases.
  std::string CellKey(const std::string& algorithm, const std::string& dataset,
                      WeightModel model, uint32_t k, double parameter,
                      double ic_probability = 0.1) const;

  // Runs one cell through MeasureCell. `parameter` NaN selects the Table 2
  // optimum for the model (falling back to the author default).
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
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_EXPERIMENT_H_
