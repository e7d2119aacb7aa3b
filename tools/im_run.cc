// im_run: the benchmarking platform's command-line driver. Runs any
// registered technique on a catalog profile or a SNAP edge-list file under
// any weight model, and reports seeds, MC-evaluated spread, time, memory
// and counters.
//
//   ./im_run --algorithm=IMM --dataset=youtube --model=WC --k=50
//   ./im_run --algorithm=LDAG --graph=soc-Epinions1.txt --model=LT --k=100
//   ./im_run --algorithm=IMM --graph-file=ba100m.imgrf --model=WC --k=50
//
// --graph-file runs the RR-set techniques out-of-core: the `.imgrf` is
// mmap'd (CompactGraph) instead of loaded into a heap CSR, weights come
// baked from the file, and --mem-budget then caps only the sampling
// working set. With --keep-going a refused file (torn, truncated, foreign)
// degrades to the ordinary --graph/--dataset load instead of aborting.
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
#include "diffusion/spread.h"
#include "framework/datasets.h"
#include "framework/exact_opt.h"
#include "framework/fault.h"
#include "framework/memory.h"
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
  std::string* mc_engine_name = flags.AddString(
      "mc-engine", "auto",
      "MC kernel for spread evaluation: auto|scalar|fused (auto picks the "
      "bit-parallel fused kernel when the simulation count allows it)");
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
      "degrade instead of aborting: a refused --graph-file falls back to "
      "edge-list loading; --serve reports malformed workload lines and "
      "failed mutations as {\"op\":\"error\"} records and keeps replaying");
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
  McEngine mc_engine = McEngine::kAuto;
  if (!ParseMcEngine(*mc_engine_name, &mc_engine)) {
    std::fprintf(stderr, "unknown --mc-engine '%s' (auto|scalar|fused)\n",
                 mc_engine_name->c_str());
    return 2;
  }

  Trace trace;
  Trace* const tr =
      (*trace_table || !trace_out->empty()) ? &trace : nullptr;
  if (tr != nullptr) tr->Annotate("mc_engine", McEngineName(mc_engine));

  // Build the graph: the mmap'd compact backend when --graph-file opens
  // cleanly, the heap CSR otherwise.
  Graph graph;
  CompactGraph compact;
  bool use_compact = false;
  {
    Span setup_span(tr, "setup");
    if (!graph_file->empty()) {
      CompactGraph::OpenOptions open_options;
      open_options.trace = tr;
      std::string error;
      const SealedStatus status =
          CompactGraph::Open(*graph_file, &compact, &error, open_options);
      if (status == SealedStatus::kOk) {
        if (compact.weight_model() != model) {
          std::fprintf(stderr,
                       "%s carries %s weights baked in; rerun with "
                       "--model=%s\n",
                       graph_file->c_str(),
                       WeightModelName(compact.weight_model()).c_str(),
                       WeightModelName(compact.weight_model()).c_str());
          return 1;
        }
        use_compact = true;
      } else if (*keep_going) {
        std::fprintf(stderr,
                     "warning: cannot open %s (%s: %s); degrading to "
                     "edge-list loading\n",
                     graph_file->c_str(), SealedStatusName(status),
                     error.c_str());
      } else {
        std::fprintf(stderr,
                     "cannot open %s (%s): %s\n"
                     "(--keep-going degrades to --graph/--dataset loading)\n",
                     graph_file->c_str(), SealedStatusName(status),
                     error.c_str());
        return 1;
      }
    }
    if (use_compact) {
      // Weights are baked into the file; nothing else to set up.
    } else if (!graph_path->empty()) {
      EdgeListError error;
      const auto loaded = LoadEdgeList(*graph_path, nullptr, &error);
      if (!loaded.has_value()) {
        std::fprintf(stderr, "failed to load edge list: %s\n",
                     error.Format(*graph_path).c_str());
        return 1;
      }
      GraphOptions options;
      options.make_bidirectional = *bidirectional;
      graph = Graph::FromArcs(loaded->num_nodes, loaded->arcs, options);
    } else {
      graph = MakeDataset(*dataset, ParseDatasetScale(*scale),
                          static_cast<uint64_t>(*seed));
    }
    Rng wrng(static_cast<uint64_t>(*seed) ^ 0x8e1);
    AssignWeights(graph, model, *ic_p, wrng);
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
    // The workload read is a fault site; a transient IO failure (volume
    // not mounted yet) is retried a few times before giving up.
    std::string workload_text;
    std::string error;
    bool read_ok = false;
    for (int attempt = 0; attempt < 3 && !read_ok; ++attempt) {
      read_ok = ReadWorkloadFile(*workload_path, &workload_text, &error);
    }
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
    ServiceOptions service_options;
    service_options.kind = kind;
    service_options.epsilon = *eps;
    service_options.seed = static_cast<uint64_t>(*seed);
    service_options.threads = static_cast<uint32_t>(*threads);
    service_options.trace = tr;
    // An explicit pool sized to --threads: the shared pool is sized to the
    // hardware, which silently falls back to one sampler lane on a
    // single-core box even when more threads were asked for. Results are
    // thread-count invariant either way; this keeps the flag honest.
    std::unique_ptr<ThreadPool> serve_pool;
    if (service_options.threads > 1) {
      serve_pool = std::make_unique<ThreadPool>(service_options.threads - 1);
      service_options.pool = serve_pool.get();
    }
    ImService service(store, service_options);

    // SIGINT/SIGTERM drain the in-flight op, the summary line below still
    // prints, and the process exits 0 — an orchestrated stop is not an
    // error.
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
    replay_options.retry_backoff_seconds = 0.001;
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
        "\"mc_engine\":\"%s\",\"interrupted\":%s,\"elapsed_seconds\":%.3f}\n",
        replay.queries.size(),
        static_cast<unsigned long long>(replay.mutations),
        static_cast<unsigned long long>(replay.retries),
        static_cast<unsigned long long>(replay.degraded),
        static_cast<unsigned long long>(replay.errors),
        static_cast<unsigned long long>(replay.final_epoch),
        static_cast<unsigned long long>(service.corpus_epoch()),
        service.corpus().size(), McEngineName(mc_engine),
        replay.interrupted ? "true" : "false", timer.Seconds());
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
    return 0;
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
  if (use_compact && !spec->supports_compact) {
    std::fprintf(stderr,
                 "%s traverses the heap CSR directly and cannot run on "
                 "--graph-file; techniques supporting it:",
                 spec->name.c_str());
    for (const AlgorithmSpec& s : AlgorithmRegistry()) {
      if (s.supports_compact) std::fprintf(stderr, " %s", s.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  double param = *parameter;
  if (std::isnan(param)) param = spec->OptimalParameterFor(model);
  std::unique_ptr<ImAlgorithm> instance = spec->make(param);

  Counters counters;
  SelectionInput input;
  if (use_compact) {
    input.compact = &compact;
  } else {
    input.graph = &graph;
  }
  input.diffusion = kind;
  input.k = static_cast<uint32_t>(*k);
  input.seed = static_cast<uint64_t>(*seed);
  input.counters = &counters;
  input.threads = static_cast<uint32_t>(*threads);
  input.trace = tr;

  // Budgets: first Ctrl-C drains the run and reports partial seeds.
  InstallSigintCancel();
  RunBudget run_budget;
  if (*budget > 0) run_budget.deadline_seconds = *budget;
  run_budget.max_heap_bytes =
      static_cast<uint64_t>(*mem_budget * 1024.0 * 1024.0);
  run_budget.cancel = SigintCancelFlag();

  const uint64_t heap_before = CurrentHeapBytes();
  ResetPeakHeapBytes();
  Timer timer;
  RunGuard guard(run_budget);
  input.guard = &guard;
  const SelectionResult result = instance->Select(input);
  const double select_secs = timer.Seconds();
  const uint64_t peak = PeakHeapBytes() - heap_before;

  const GraphView view = input.View();
  timer.Restart();
  SpreadOptions eval;
  eval.simulations = static_cast<uint32_t>(*mc);
  eval.engine = mc_engine;
  eval.seed = static_cast<uint64_t>(*seed);
  eval.threads = static_cast<uint32_t>(*threads);
  eval.trace = tr;
  Span evaluate_span(tr, "evaluate");
  const SpreadEstimate sigma = EstimateSpread(view, kind, result.seeds, eval);
  evaluate_span.Close();
  const double eval_secs = timer.Seconds();

  std::printf("graph: %u nodes, %llu arcs%s; model %s; algorithm %s",
              view.num_nodes(),
              static_cast<unsigned long long>(view.num_edges()),
              use_compact ? " (mmap'd graph file)" : "",
              WeightModelName(model).c_str(), spec->name.c_str());
  if (spec->HasParameter()) {
    std::printf(" (%s = %g)", spec->parameter_name.c_str(), param);
  }
  std::printf("\nseeds:");
  for (const NodeId s : result.seeds) std::printf(" %u", s);
  std::printf(
      "\nspread: %.1f +/- %.2f (%.2f%% of network, %u sims, %s engine, "
      "%.2fs)\n",
      sigma.mean, sigma.StdError(), 100.0 * sigma.mean / view.num_nodes(),
      sigma.simulations, McEngineName(mc_engine), eval_secs);
  if (result.internal_spread_estimate > 0) {
    std::printf("algorithm's internal estimate: %.1f\n",
                result.internal_spread_estimate);
  }
  std::printf("selection: %.3fs, peak working memory %.2f MB", select_secs,
              peak / 1e6);
  if (!result.complete()) {
    std::printf(" (stopped early: %s; %zu of %u seeds)",
                StopReasonName(result.stop_reason), result.seeds.size(),
                input.k);
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
    exact.threads = static_cast<uint32_t>(*threads);
    exact.trace = tr;
    if (!ExactOracleFeasible(graph, kind, exact)) {
      std::printf(
          "exact-opt: infeasible for this graph (need <= 64 nodes and a "
          "bounded live-edge closure table)\n");
    } else {
      const ExactOptResult optimum =
          BranchAndBoundOptimum(graph, kind, input.k, exact);
      if (optimum.status == ExactOptStatus::kStopped) {
        std::printf("exact-opt: stopped (%s) before finding an incumbent\n",
                    StopReasonName(optimum.stop));
      } else {
        const ExactSpreadOracle oracle(graph, kind, exact);
        const double achieved = oracle.Spread(result.seeds);
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
      static_cast<unsigned long long>(counters.spread_evaluations),
      static_cast<unsigned long long>(counters.simulations),
      static_cast<unsigned long long>(counters.rr_sets),
      static_cast<unsigned long long>(counters.snapshots),
      static_cast<unsigned long long>(counters.scoring_rounds));
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
