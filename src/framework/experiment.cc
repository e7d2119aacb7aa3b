#include "framework/experiment.h"

#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "framework/journal.h"
#include "framework/metrics.h"
#include "framework/run_guard.h"
#include "framework/trace.h"

namespace imbench {

const char* CellStatusName(CellResult::Status status) {
  switch (status) {
    case CellResult::Status::kOk:
      return "OK";
    case CellResult::Status::kDnf:
      return "DNF";
    case CellResult::Status::kOverBudget:
      return "Crashed";
    case CellResult::Status::kUnsupported:
      return "NA";
    case CellResult::Status::kCancelled:
      return "Cancelled";
  }
  return "?";
}

CellResult MeasureCell(ImAlgorithm& algorithm, const GraphView& graph,
                       DiffusionKind kind, uint32_t k,
                       const CellOptions& options) {
  IMBENCH_CHECK_MSG(algorithm.Supports(kind), "%s does not support %s",
                    algorithm.name().c_str(), DiffusionKindName(kind));
  CellResult result;
  Trace cell_trace;
  Trace* const trace = options.trace != nullptr ? options.trace : &cell_trace;
  SelectionInput input;
  input.graph = graph.memory_graph();
  input.compact = graph.compact_graph();
  input.diffusion = kind;
  input.k = k;
  input.seed = options.seed;
  input.threads = options.threads;
  input.pool = options.pool;
  input.trace = trace;

  const bool deadline = options.time_budget_seconds > 0;
  RunBudget budget;
  if (deadline) budget.deadline_seconds = options.time_budget_seconds;
  budget.max_heap_bytes = options.memory_budget_bytes;
  budget.cancel = options.cancel;

  RunMeter meter;
  meter.Start();
  // Armed after Start so the deadline measures the same span the meter does.
  RunGuard guard(budget);
  input.guard = &guard;
  const TraceCounterArray before = trace->totals();
  SelectionResult selection = algorithm.Select(input);
  const Measurement measurement = meter.Stop();
  for (int c = 0; c < kNumTraceCounters; ++c) {
    result.counters[c] = trace->totals()[c] - before[c];
  }

  result.seeds = std::move(selection.seeds);
  result.internal_estimate = selection.internal_spread_estimate;
  result.select_seconds = measurement.seconds;
  result.peak_heap_bytes = measurement.peak_heap_bytes;
  result.stop_reason = selection.stop_reason;
  switch (selection.stop_reason) {
    case StopReason::kNone:
      // Backstop for algorithms that finished without ever observing the
      // guard trip (e.g. the final poll landed between strides).
      if (deadline && measurement.seconds > options.time_budget_seconds) {
        result.status = CellResult::Status::kDnf;
        result.stop_reason = StopReason::kDeadline;
      }
      break;
    case StopReason::kDeadline:
      result.status = CellResult::Status::kDnf;
      break;
    case StopReason::kMemory:
      result.status = CellResult::Status::kOverBudget;
      break;
    case StopReason::kCancelled:
      result.status = CellResult::Status::kCancelled;
      break;
    case StopReason::kFault:
      // An unretried injected fault surfaces like a DNF: the cell did not
      // finish its workload (chaos runs only; never fires disarmed).
      result.status = CellResult::Status::kDnf;
      break;
  }
  // Spread computation phase (Sec. 5.1): decoupled MC evaluation so every
  // technique is compared from the same standpoint. Still evaluated for
  // DNF/over-budget cells — their best-effort seeds are informative — but
  // skipped on cancellation, where the user is waiting for the exit.
  if (result.status != CellResult::Status::kCancelled) {
    SpreadOptions eval;
    eval.simulations = options.evaluation_simulations;
    eval.seed = EvaluationSeed(options.seed);
    eval.threads = options.threads;
    eval.pool = options.pool;
    eval.trace = options.trace;
    Span evaluate_span(options.trace, "evaluate");
    result.spread = EstimateSpread(graph, kind, result.seeds, eval);
  }
  return result;
}

Workbench::Workbench(const WorkbenchOptions& options) : options_(options) {
  if (!options_.journal_path.empty()) {
    journal_ = std::make_unique<ResultJournal>(options_.journal_path);
  }
  if (!options_.trace_out_path.empty()) {
    trace_ = std::make_unique<Trace>();
  }
  // One pool sized to --threads, as in im_run; 0 keeps the shared pool.
  if (options_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads - 1);
  }
  options_.trace = trace_.get();
  options_.pool = pool_.get();
}

Workbench::~Workbench() {
  if (trace_ != nullptr) {
    trace_->WriteJsonFile(options_.trace_out_path);
  }
}

bool Workbench::cancelled() const {
  return options_.cancel != nullptr &&
         options_.cancel->load(std::memory_order_relaxed);
}

const Graph& Workbench::GetGraph(const std::string& dataset,
                                 WeightModel model, double ic_probability) {
  const std::string key =
      dataset + "/" + WeightModelName(model) +
      (model == WeightModel::kIcConstant ? std::to_string(ic_probability)
                                         : std::string());
  auto it = graphs_.find(key);
  if (it != graphs_.end()) return it->second;
  return graphs_
      .emplace(key, MakeWeightedDataset(dataset, options_.scale, model,
                                        ic_probability, options_.seed))
      .first->second;
}

std::string Workbench::CellKey(const std::string& algorithm,
                               const std::string& dataset, WeightModel model,
                               uint32_t k, double parameter,
                               double ic_probability) const {
  // The budgets belong to the key: a DNF or Crashed cell journaled under
  // a small budget must not replay under a larger one.
  char suffix[224];
  std::snprintf(suffix, sizeof(suffix),
                "/k=%u/param=%.9g/p=%.9g/scale=%d/seed=%llu/mc=%u/budget=%.9g"
                "/mem=%llu",
                k, parameter, ic_probability, static_cast<int>(options_.scale),
                static_cast<unsigned long long>(options_.seed),
                options_.evaluation_simulations, options_.time_budget_seconds,
                static_cast<unsigned long long>(options_.memory_budget_bytes));
  return algorithm + "/" + dataset + "/" + WeightModelName(model) + suffix;
}

CellResult Workbench::RunCell(const std::string& algorithm,
                              const std::string& dataset, WeightModel model,
                              uint32_t k, double parameter,
                              double ic_probability) {
  const AlgorithmSpec* spec = FindAlgorithm(algorithm);
  IMBENCH_CHECK_MSG(spec != nullptr, "unknown algorithm '%s'",
                    algorithm.c_str());
  if (std::isnan(parameter)) parameter = spec->OptimalParameterFor(model);
  std::unique_ptr<ImAlgorithm> instance = spec->make(parameter);
  return RunCell(*instance, dataset, model, k, ic_probability,
                 CellKey(algorithm, dataset, model, k, parameter,
                         ic_probability));
}

CellResult Workbench::RunCell(ImAlgorithm& algorithm,
                              const std::string& dataset, WeightModel model,
                              uint32_t k, double ic_probability,
                              const std::string& journal_key) {
  const DiffusionKind kind = DiffusionKindFor(model);
  if (!algorithm.Supports(kind)) {
    CellResult result;
    result.status = CellResult::Status::kUnsupported;
    return result;
  }
  const bool journaled = journal_ != nullptr && !journal_key.empty();
  // Journal replay: a previous run already finished this exact cell.
  if (journaled) {
    if (const CellResult* replayed = journal_->Find(journal_key)) {
      return *replayed;
    }
  }
  const Graph& graph = GetGraph(dataset, model, ic_probability);
  Span cell_span(options_.trace, "cell");
  CellResult result = MeasureCell(algorithm, graph, kind, k, options_);
  // Journal everything except cancelled cells: a cancelled cell is an
  // artifact of when Ctrl-C landed, and the resumed run should redo it.
  if (journaled && result.status != CellResult::Status::kCancelled) {
    journal_->Append(journal_key, result);
  }
  return result;
}

}  // namespace imbench
