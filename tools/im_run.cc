// im_run: the benchmarking platform's command-line driver. Runs any
// registered technique on a catalog profile or a SNAP edge-list file under
// any weight model, and reports seeds, MC-evaluated spread, time, memory
// and counters, measured by MeasureCell as every harness cell is. --graph
// seeds print in the file's node ids.
//
//   ./im_run --algorithm=IMM --dataset=youtube --model=WC --k=50
//   ./im_run --algorithm=LDAG --graph=soc-Epinions1.txt --model=LT --k=100
//   ./im_run --algorithm=IMM --graph-file=ba100m.imgrf --model=WC --k=50
//
// --graph-file runs any technique out-of-core: the `.imgrf` is mmap'd
// (CompactGraph) instead of loaded into a heap CSR, weights come baked
// from the file, and --mem-budget then caps only the technique's working
// set. A refused file (torn, truncated, foreign) exits 1 with its
// SealedStatus before anything is selected.
//
// With --serve the binary becomes the always-on query engine instead: it
// opens the graph in an EpochGraphStore, stands up an ImService and
// replays a --workload file of queries and mutations against the warm RR
// corpus (see src/service/workload.h for the format), printing one JSON
// line per op:
//
//   ./im_run --serve --workload=ops.txt --dataset=nethept --model=WC

#include <cstdio>
#include <memory>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "framework/datasets.h"
#include "framework/exact_opt.h"
#include "framework/experiment.h"
#include "framework/fault.h"
#include "framework/registry.h"
#include "framework/run_guard.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/edge_list.h"
#include "graph/graph_view.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"
#include "service/im_service.h"
#include "service/workload.h"

using namespace imbench;

namespace {

WeightModel ParseModel(const std::string& name) {
  WeightModel model;
  if (ParseWeightModel(name, &model)) return model;
  std::fprintf(stderr, "unknown model '%s' (IC|WC|TV|LT|LT-random|LT-P)\n",
               name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("run one IM technique and report the paper's metrics");
  std::string* algorithm = flags.AddString("algorithm", "IMM",
                                           "registry name (see --list)");
  std::string* dataset =
      flags.AddString("dataset", "nethept", "catalog profile name");
  std::string* graph_path = flags.AddString(
      "graph", "", "SNAP edge-list file (overrides --dataset)");
  std::string* graph_file = flags.AddString(
      "graph-file", "",
      ".imgrf graph file to mmap as the out-of-core backend (overrides "
      "--graph/--dataset; weights are baked into the file)");
  bool* bidirectional = flags.AddBool(
      "bidirectional", false, "treat --graph arcs as undirected edges");
  std::string* scale = flags.AddString("scale", "bench", "dataset scale");
  std::string* model_name = flags.AddString("model", "WC", "weight model");
  double* ic_p = flags.AddDouble("p", 0.1, "IC constant probability");
  int64_t* k = flags.AddInt("k", 50, "seed-set size");
  double* parameter = flags.AddDouble(
      "param", kDefaultParameter,
      "external parameter (default: the Table 2 optimum for the model)");
  int64_t* mc = flags.AddInt("mc", 10000, "MC simulations for evaluation");
  double* budget = flags.AddDouble(
      "budget", 0.0,
      "selection time budget in seconds (0 = unlimited); on expiry the "
      "partial seed set is reported");
  double* mem_budget = flags.AddDouble(
      "mem-budget", 0.0, "selection heap cap in MB (0 = unlimited)");
  bool* exact_opt = flags.AddBool(
      "exact-opt", false,
      "also compute the branch-and-bound exact optimum (closure-table "
      "oracle, feasible up to 64 nodes / bounded live-edge instantiations) "
      "and report the true optimality ratio of the returned seeds");
  int64_t* bnb_node_budget = flags.AddInt(
      "bnb-node-budget", 5'000'000,
      "--exact-opt: search-node budget; on expiry the incumbent is "
      "reported as a lower bound instead of a proven optimum");
  int64_t* seed = flags.AddInt("seed", 1, "RNG seed");
  int64_t* threads = flags.AddInt(
      "threads", 0,
      "worker threads for RR-set generation and MC evaluation "
      "(0 = all hardware, 1 = sequential); results do not depend on it");
  std::string* trace_out = flags.AddString(
      "trace-out", "",
      "write the per-phase trace (spans + counters) as JSON to this file");
  bool* trace_table = flags.AddBool(
      "trace", false, "print the per-phase trace as a human-readable table");
  bool* serve = flags.AddBool(
      "serve", false,
      "run as an always-on query service replaying --workload against a "
      "warm RR corpus instead of one-shot selection");
  std::string* workload_path = flags.AddString(
      "workload", "", "query+mutation workload file for --serve");
  double* eps = flags.AddDouble(
      "eps", 0.5, "service default sampling accuracy for --serve queries");
  bool* keep_going = flags.AddBool(
      "keep-going", false,
      "--serve reports malformed workload lines and failed mutations as "
      "{\"op\":\"error\"} records and keeps replaying (without it the "
      "replay halts at the first one and exits 1)");
  std::string* checkpoint_path = flags.AddString(
      "checkpoint", "",
      "--serve: recover the warm RR corpus from this file on start (if it "
      "matches the graph/seed/model) and save it back on exit");
  std::string* fault_plan_spec = flags.AddString(
      "fault-plan", "",
      "arm deterministic fault injection, e.g. "
      "'rr_arena_grow:hit=1,checkpoint_write:hit=1' "
      "(see framework/fault.h for the grammar)");
  int64_t* fault_seed = flags.AddInt(
      "fault-seed", 0, "RNG seed for probabilistic fault rules");
  bool* list = flags.AddBool("list", false, "list algorithms and exit");
  flags.Parse(argc, argv);

  if (!fault_plan_spec->empty()) {
    FaultPlan plan;
    std::string fault_error;
    if (!ParseFaultPlan(*fault_plan_spec, &plan, &fault_error)) {
      std::fprintf(stderr, "bad --fault-plan: %s\n", fault_error.c_str());
      return 2;
    }
    plan.seed = static_cast<uint64_t>(*fault_seed);
    FaultInjector::Global().Arm(plan);
  }

  if (*list) {
    std::printf("%-16s %-4s %-4s %s\n", "name", "IC", "LT", "parameter");
    for (const AlgorithmSpec& spec : AlgorithmRegistry()) {
      std::printf("%-16s %-4s %-4s %s\n", spec.name.c_str(),
                  spec.supports_ic ? "yes" : "-",
                  spec.supports_lt ? "yes" : "-",
                  spec.HasParameter() ? spec.parameter_name.c_str() : "");
    }
    return 0;
  }

  const WeightModel model = ParseModel(*model_name);
  const DiffusionKind kind = DiffusionKindFor(model);

  // One-shot runs always select under the trace: the printed counters are
  // its totals.
  Trace trace;

  // One pool sized to --threads for every parallel stage of both modes
  // (the shared pool is sized to the hardware); --threads=0 keeps the
  // shared pool. Results do not depend on it.
  const uint32_t num_threads = static_cast<uint32_t>(*threads);
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads - 1);

  // Build the graph: the mmap'd compact backend for --graph-file, the heap
  // CSR otherwise.
  Graph graph;
  CompactGraph compact;
  const bool use_compact = !graph_file->empty();
  std::vector<uint64_t> original_ids;  // --graph: file id per dense node
  {
    Span setup_span(&trace, "setup");
    if (use_compact) {
      CompactGraph::OpenOptions open_options;
      open_options.trace = &trace;
      std::string error;
      const SealedStatus status =
          CompactGraph::Open(*graph_file, &compact, &error, open_options);
      if (status != SealedStatus::kOk) {
        std::fprintf(stderr, "cannot open %s (%s): %s\n",
                     graph_file->c_str(), SealedStatusName(status),
                     error.c_str());
        return 1;
      }
      if (compact.weight_model() != model) {
        std::fprintf(stderr,
                     "%s carries %s weights baked in; rerun with "
                     "--model=%s\n",
                     graph_file->c_str(),
                     WeightModelName(compact.weight_model()).c_str(),
                     WeightModelName(compact.weight_model()).c_str());
        return 1;
      }
      // Weights are baked into the file; nothing else to set up.
    } else if (!graph_path->empty()) {
      EdgeListError error;
      const auto loaded = LoadEdgeList(*graph_path, &original_ids, &error);
      if (!loaded.has_value()) {
        std::fprintf(stderr, "failed to load edge list: %s\n",
                     error.Format(*graph_path).c_str());
        return 1;
      }
      GraphOptions options;
      options.make_bidirectional = *bidirectional;
      graph = Graph::FromArcs(loaded->num_nodes, loaded->arcs, options);
      AssignSeededWeights(graph, model, *ic_p, static_cast<uint64_t>(*seed));
    } else {
      graph = MakeWeightedDataset(*dataset, ParseDatasetScale(*scale), model,
                                  *ic_p, static_cast<uint64_t>(*seed));
    }
  }

  if (*serve) {
    if (use_compact) {
      std::fprintf(stderr,
                   "--serve mutates the graph (EpochGraphStore) and needs "
                   "the in-memory backend; drop --graph-file\n");
      return 2;
    }
    if (workload_path->empty()) {
      std::fprintf(stderr, "--serve requires --workload=FILE\n");
      return 2;
    }
    ServiceOptions service_options;
    service_options.kind = kind;
    service_options.epsilon = *eps;
    service_options.seed = static_cast<uint64_t>(*seed);
    service_options.threads = num_threads;
    service_options.pool = pool.get();
    // The service traces only when the trace is printed or written.
    service_options.trace =
        (*trace_table || !trace_out->empty()) ? &trace : nullptr;

    // The workload read is a fault site; a failed read (volume not mounted
    // yet) is retried under the service's one retry rule.
    std::string workload_text;
    std::string error;
    bool read_ok = false;
    RetryTransient(service_options.retry_backoff_seconds, [&] {
      read_ok = ReadWorkloadFile(*workload_path, &workload_text, &error);
      return !read_ok;
    });
    if (!read_ok) {
      std::fprintf(stderr, "cannot read workload %s: %s\n",
                   workload_path->c_str(), error.c_str());
      return 1;
    }
    std::vector<WorkloadOp> ops;
    if (*keep_going) {
      ParseWorkloadLenient(workload_text, &ops);
    } else if (!ParseWorkload(workload_text, &ops, &error)) {
      std::fprintf(stderr, "bad workload %s: %s\n", workload_path->c_str(),
                   error.c_str());
      return 1;
    }
    EpochGraphStore store(std::move(graph));
    ImService service(store, service_options);

    // SIGINT/SIGTERM drain the in-flight op, the summary line below still
    // prints, and the process exits 0 — an orchestrated stop is not an
    // error. A replay that halts on an error record exits 1.
    InstallServeSignalHandlers();

    if (!checkpoint_path->empty()) {
      std::string detail;
      const SealedStatus status =
          service.LoadCheckpoint(*checkpoint_path, &detail);
      std::printf(
          "{\"op\":\"checkpoint\",\"action\":\"recover\",\"status\":\"%s\","
          "\"warm_sets\":%zu,\"detail\":\"%s\"}\n",
          SealedStatusName(status), service.corpus().size(),
          detail.c_str());
    }

    Timer timer;
    std::string log;
    ReplayOptions replay_options;
    replay_options.stop = SigintCancelFlag();
    replay_options.keep_going = *keep_going;
    const ReplayResult replay =
        ReplayWorkload(store, service, ops, &log, replay_options);
    std::fputs(log.c_str(), stdout);

    if (!checkpoint_path->empty()) {
      std::string detail;
      const bool saved = service.SaveCheckpoint(*checkpoint_path, &detail);
      std::printf(
          "{\"op\":\"checkpoint\",\"action\":\"save\",\"status\":\"%s\","
          "\"warm_sets\":%zu,\"detail\":\"%s\"}\n",
          saved ? "ok" : "failed", service.corpus().size(), detail.c_str());
    }

    std::printf(
        "{\"op\":\"summary\",\"queries\":%zu,\"mutations\":%llu,"
        "\"retries\":%llu,\"degraded\":%llu,\"errors\":%llu,"
        "\"final_epoch\":%llu,\"corpus_epochs\":%llu,\"warm_sets\":%zu,"
        "\"interrupted\":%s,\"elapsed_seconds\":%.3f}\n",
        replay.queries.size(),
        static_cast<unsigned long long>(replay.mutations),
        static_cast<unsigned long long>(replay.retries),
        static_cast<unsigned long long>(replay.degraded),
        static_cast<unsigned long long>(replay.errors),
        static_cast<unsigned long long>(replay.final_epoch),
        static_cast<unsigned long long>(service.corpus_epoch()),
        service.corpus().size(), replay.interrupted ? "true" : "false",
        timer.Seconds());
    std::printf(
        "served %zu queries, %llu mutations, final epoch %llu, warm corpus "
        "%zu sets (%.2f MB), %.3fs\n",
        replay.queries.size(),
        static_cast<unsigned long long>(replay.mutations),
        static_cast<unsigned long long>(replay.final_epoch),
        service.corpus().size(), service.corpus().MemoryBytes() / 1e6,
        timer.Seconds());
    if (*trace_table) trace.PrintTable(stdout);
    if (!trace_out->empty() && !trace.WriteJsonFile(*trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out->c_str());
      return 1;
    }
    return replay.errors > 0 && !*keep_going ? 1 : 0;
  }

  const AlgorithmSpec* spec = FindAlgorithm(*algorithm);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown algorithm '%s' (try --list)\n",
                 algorithm->c_str());
    return 1;
  }
  if (!spec->Supports(kind)) {
    std::fprintf(stderr, "%s does not support %s (Table 5)\n",
                 spec->name.c_str(), DiffusionKindName(kind));
    return 1;
  }
  const GraphView view = use_compact ? GraphView(compact) : GraphView(graph);
  if (*k < 1 || *k > view.num_nodes()) {
    std::fprintf(stderr, "--k=%lld is outside [1, %u], the graph's nodes\n",
                 static_cast<long long>(*k), view.num_nodes());
    return 1;
  }
  double param = *parameter;
  if (std::isnan(param)) param = spec->OptimalParameterFor(model);
  std::unique_ptr<ImAlgorithm> instance = spec->make(param);

  CellOptions cell_options;
  cell_options.seed = static_cast<uint64_t>(*seed);
  cell_options.threads = num_threads;
  cell_options.pool = pool.get();
  cell_options.trace = &trace;
  cell_options.evaluation_simulations = static_cast<uint32_t>(*mc);
  cell_options.time_budget_seconds = *budget;
  cell_options.memory_budget_bytes =
      static_cast<uint64_t>(*mem_budget * 1024.0 * 1024.0);
  // Budgets: first Ctrl-C drains the run and reports partial seeds.
  InstallSigintCancel();
  cell_options.cancel = SigintCancelFlag();

  const uint32_t seed_count = static_cast<uint32_t>(*k);
  Timer timer;
  const CellResult cell =
      MeasureCell(*instance, view, kind, seed_count, cell_options);
  const double eval_secs = timer.Seconds() - cell.select_seconds;
  const auto count = [&cell](TraceCounter counter) {
    return static_cast<unsigned long long>(
        cell.counters[static_cast<int>(counter)]);
  };

  std::printf("graph: %u nodes, %llu arcs%s; model %s; algorithm %s",
              view.num_nodes(),
              static_cast<unsigned long long>(view.num_edges()),
              use_compact ? " (mmap'd graph file)" : "",
              WeightModelName(model).c_str(), spec->name.c_str());
  if (spec->HasParameter()) {
    std::printf(" (%s = %g)", spec->parameter_name.c_str(), param);
  }
  std::printf("\nseeds:");
  for (const NodeId s : cell.seeds) {
    std::printf(" %llu", static_cast<unsigned long long>(
                             original_ids.empty() ? s : original_ids[s]));
  }
  // A cancelled run is not evaluated: its line reads 0 sims.
  std::printf(
      "\nspread: %.1f +/- %.2f (%.2f%% of network, %u sims, %.2fs)\n",
      cell.spread.mean, cell.spread.StdError(),
      100.0 * cell.spread.mean / view.num_nodes(), cell.spread.simulations,
      eval_secs);
  if (cell.internal_estimate > 0) {
    std::printf("algorithm's internal estimate: %.1f\n",
                cell.internal_estimate);
  }
  std::printf("selection: %.3fs, peak working memory %.2f MB",
              cell.select_seconds, cell.peak_heap_bytes / 1e6);
  if (cell.stop_reason != StopReason::kNone) {
    std::printf(" (stopped early: %s; %zu of %u seeds)",
                StopReasonName(cell.stop_reason), cell.seeds.size(),
                seed_count);
  }
  std::printf("\n");
  if (use_compact) {
    // File-backed pages are reclaimable page cache, not heap — report them
    // separately so the heap figure above stays comparable to in-memory
    // runs (see EXPERIMENTS.md, memory accounting).
    std::printf("graph file: %.2f MB resident of %.2f MB mapped\n",
                compact.ResidentBytes() / 1e6, compact.MappedBytes() / 1e6);
  }
  if (*exact_opt && use_compact) {
    std::printf(
        "exact-opt: needs the in-memory backend (closure tables index the "
        "heap CSR); rerun without --graph-file\n");
  } else if (*exact_opt) {
    ExactOptOptions exact;
    exact.node_budget = static_cast<uint64_t>(*bnb_node_budget);
    exact.threads = num_threads;
    exact.pool = pool.get();
    exact.trace = &trace;
    if (!ExactOracleFeasible(graph, kind, exact)) {
      std::printf(
          "exact-opt: infeasible for this graph (need <= 64 nodes and a "
          "bounded live-edge closure table)\n");
    } else {
      const ExactOptResult optimum =
          BranchAndBoundOptimum(graph, kind, seed_count, exact);
      if (optimum.status == ExactOptStatus::kStopped) {
        std::printf("exact-opt: stopped (%s) before finding an incumbent\n",
                    StopReasonName(optimum.stop));
      } else {
        const ExactSpreadOracle oracle(graph, kind, exact);
        const double achieved = oracle.Spread(cell.seeds);
        std::printf(
            "exact-opt: %s %.4f (achieved %.4f, ratio %.4f; %llu "
            "nodes expanded, %llu pruned, %llu closure classes)\n",
            optimum.proven() ? "optimum OPT =" : "incumbent lower bound >=",
            optimum.spread, achieved,
            optimum.spread > 0 ? achieved / optimum.spread : 0.0,
            static_cast<unsigned long long>(optimum.nodes_expanded),
            static_cast<unsigned long long>(optimum.nodes_pruned),
            static_cast<unsigned long long>(optimum.closure_classes));
      }
    }
  }
  std::printf(
      "counters: %llu spread evaluations, %llu simulations, %llu RR sets, "
      "%llu snapshots, %llu scoring rounds\n",
      count(TraceCounter::kNodeLookups), count(TraceCounter::kSimulations),
      count(TraceCounter::kRrSets), count(TraceCounter::kSnapshots),
      count(TraceCounter::kScoringRounds));
  if (*trace_table) trace.PrintTable(stdout);
  if (!trace_out->empty()) {
    if (!trace.WriteJsonFile(*trace_out)) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_out->c_str());
      return 1;
    }
  }
  return 0;
}
