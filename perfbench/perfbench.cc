// perfbench: the repository's end-to-end and per-layer benchmark driver.
//
//   perfbench --workload=imm-wc --seed=1 --seconds=15 --trace=0
//
// One workload per run, every timed op on one lane. With --trace=0 the
// driver measures what a user of imbench waits for or pays (set-up, one
// selection, its MC evaluation, peak heap, served-query latency); with
// --trace=1 it instead times its own calls into each module (graph, rr,
// cover, mc, algo, service) and reports one number per layer, normalised
// per unit of work where the work is counted. Every op is checked before
// any timing counts: the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads, the metrics and the map from
// each layer metric to the end-to-end metric it should move.
//
// Steadiness rules, learnt from timings that moved 8-14% between two runs
// of identical code, and from wall-clock medians that spread 25-56% across
// ten runs on a shared host: no reported end-to-end time is a single
// sub-second interval, and every one is CPU time (see CpuTimer). Set-up
// repeats for seconds and reports the median; every op repeats while it
// fits in --seconds and reports medians; heap figures are exact byte
// counts from framework/memory.h. Fixture inputs (see kFixtureSeed) keep
// the work of every run the same.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/imm.h"
#include "algorithms/tim_plus.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "diffusion/rr_sets.h"
#include "diffusion/spread.h"
#include "framework/memory.h"
#include "framework/trace.h"
#include "graph/compact_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_file.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"
#include "service/im_service.h"
#include "span_log.h"

namespace {

using namespace imbench;
using perfbench::LayerSpan;
using perfbench::SpanLog;

// Every timed op runs on this many lanes. Fixed because timings and even
// peak heap depend on it. One lane, because end-to-end times are CPU time
// (see CpuTimer): with two lanes the CPU an op burns depends on how much
// the lanes overlap, which the host decides (imm-wc select read 4.1-4.5
// CPU-s on an idle 4-vCPU host and 3.6-3.9 with three busy neighbours),
// and two lanes selected no faster than one there (3.9-4.9 s wall against
// 3.4 s).
constexpr uint32_t kThreads = 1;
// The traced run repeats selection, RR sampling and MC evaluation on this
// many lanes (the caller plus one pool worker), checks the results are
// identical and reports the speed-up.
constexpr uint32_t kCompareThreads = 2;
// Set-up (0.07-0.25 s) repeats at least kMinSetupReps times and until
// kMinSetupSeconds have passed; the median is reported.
constexpr size_t kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 1.5;
// Timed loops run at least this many ops (one-shot) or stream replays
// (serve-mix), then more while they fit in --seconds.
constexpr size_t kMinOps = 3;
// Serve-mix op stream length; streams replay while they fit in --seconds.
constexpr int kServeOps = 80;
// Lazy-heap cover engine threshold in RrCollection (kDegreeBucketThreshold).
constexpr size_t kSmallCoverLimit = 4095;
constexpr double kMiB = 1048576.0;

enum class Shape { kOneShot, kServe };
enum class Backend { kHeap, kImgrf };
enum class Technique { kImm, kTimPlus };

struct Workload {
  const char* name;
  Shape shape;
  Backend backend;
  NodeId nodes;  // Barabasi-Albert graph: nodes x attachments per node
  uint32_t attach;
  WeightModel weights;
  DiffusionKind diffusion;
  Technique technique;  // one-shot only; serve-mix runs ImService
  double epsilon;
  uint32_t k;
  uint32_t simulations;  // MC evaluation of the selected / served seeds
  // One-shot selects per op (each a select_s sample; the first also makes
  // the op's select-then-evaluate request). Two where evaluation makes
  // most of an op, so that select_s gets as many samples as it needs.
  uint32_t selects_per_op;
  // One-shot recorded reference: SeedsDigest of the selected seeds and
  // their spread under --seed=1's MC streams.
  uint64_t reference_digest;
  double reference_spread;
};

constexpr Workload kWorkloads[] = {
    {"imm-wc", Shape::kOneShot, Backend::kHeap, 100000, 5, WeightModel::kWc,
     DiffusionKind::kIndependentCascade, Technique::kImm, 0.1, 50, 10000, 1,
     0xa9efdb650fcb090fULL, 929.9548},
    {"timplus-lt", Shape::kOneShot, Backend::kHeap, 100000, 5,
     WeightModel::kLtUniform, DiffusionKind::kLinearThreshold,
     Technique::kTimPlus, 0.35, 50, 10000, 2, 0xece0d7eab0a753d9ULL,
     932.4803},
    // ε=0.3 and 1K sims on purpose: at ε=0.1 IMM trips its 60M-entry cap
    // on this graph, and 10K sims take about 8 s per evaluation.
    {"imm-imgrf", Shape::kOneShot, Backend::kImgrf, 625000, 16,
     WeightModel::kWc, DiffusionKind::kIndependentCascade, Technique::kImm,
     0.3, 50, 1000, 1, 0xb3df17c7d7fc7b85ULL, 3287.114},
    {"serve-mix", Shape::kServe, Backend::kHeap, 100000, 5, WeightModel::kWc,
     DiffusionKind::kIndependentCascade, Technique::kImm, 2.0, 50, 10000, 1,
     0, 0},
};

// Seed of the fixtures every run shares: graph topology and weights, and
// the RR sampler streams. IMM's and TIM+'s set counts follow a random
// bound (KPT, the martingale lower bound) that can double θ from one
// sampler seed to the next; with seed-derived graphs and streams, select_s
// spread 22-34% across five seeds. The service's θ is a fixed formula, but
// its corpus, and so its served seeds, peak heap and repair costs, still
// follow the sampler seed. Fixed fixtures keep the work of every run
// comparable; --seed varies the MC streams and the serve op stream.
constexpr uint64_t kFixtureSeed = 7;

// ---------------------------------------------------------------- stats

// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}
double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
double Sum(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

double HeapMiB(uint64_t bytes) { return static_cast<double>(bytes) / kMiB; }

// Whether a timed loop starts another op: until kMinOps are done, then
// while one more op of the median wall length so far still ends within
// `seconds`. A run thus ends near --seconds instead of overrunning by up
// to one op (7-9 s on the slowest workloads).
bool StartAnother(const Timer& wall, const std::vector<double>& op_wall,
                  double seconds) {
  return op_wall.size() < kMinOps ||
         wall.Seconds() + Median(op_wall) <= seconds;
}

// CPU seconds of the whole process (every lane, user and system) since
// construction. End-to-end times are CPU time: on a shared host the wall
// clock also counts the time other tenants hold the cores (steal and
// run-queue waits), which spread wall-clock medians by 25-56% across ten
// runs of identical code. Pool workers block rather than spin while idle,
// so this is the work the op did.
class CpuTimer {
 public:
  CpuTimer() : start_(Now()) {}
  double Seconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_;
};

// FNV-1a over a corpus' two forward arenas: equal digests mean equal
// corpora, without keeping two multi-hundred-MB corpora alive to compare.
uint64_t CorpusDigest(const RrCollection& corpus) {
  uint64_t h = imgrf::kFnvBasis;
  const auto members = corpus.MembersArena();
  const auto offsets = corpus.OffsetsArena();
  h = imgrf::Fnv1a(members.data(), members.size_bytes(), h);
  return imgrf::Fnv1a(offsets.data(), offsets.size_bytes(), h);
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Set(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  // Counts one checked op; a false `ok` is a failed op and is explained.
  void Check(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("gate FAILED: %s\n", what);
    }
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void Print() const {
    std::printf("correctness gate: %s (%llu ops attempted, %llu failed)\n",
                correct() ? "passed" : "FAILED",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (const Metric& m : metrics_) {
      std::printf("metric %s = %.9g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------- inputs

struct RunConfig {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  SpanLog* log = nullptr;  // non-null only in the traced run
  ThreadPool* pool = nullptr;
  std::string data_dir;
};

// Stream bases: fixtures from kFixtureSeed, the rest from --seed.
constexpr uint64_t kGraphSeed = kFixtureSeed;
constexpr uint64_t kWeightSeed = kFixtureSeed ^ 0x8e1;
constexpr uint64_t kSamplerSeed = kFixtureSeed + 1;
uint64_t McSeed(const RunConfig& c) { return c.seed + 2; }

// FNV-1a of a seed list, the form the recorded references take.
uint64_t SeedsDigest(const std::vector<NodeId>& seeds) {
  return imgrf::Fnv1a(seeds.data(), seeds.size() * sizeof(NodeId),
                      imgrf::kFnvBasis);
}

// Per-piece set-up seconds; a piece a backend does not run stays 0.
struct SetupTimes {
  double cpu = 0;  // CPU seconds of the whole set-up
  double total = 0;
  double generate = 0;
  double csr_build = 0;
  double weights = 0;
  double open = 0;
  double open_mb = 0;
};

// Heap set-up: generate the BA arcs, build the CSR, assign the weights.
Graph SetUpHeapGraph(const RunConfig& c, SetupTimes* times) {
  const Workload& w = *c.workload;
  LayerSpan setup(c.log, "setup");
  LayerSpan generate(c.log, "graph.generate");
  Rng rng(kGraphSeed);
  EdgeList list = BarabasiAlbert(w.nodes, w.attach, rng);
  generate.Count("arcs", static_cast<double>(list.arcs.size()));
  times->generate = generate.End();
  LayerSpan csr(c.log, "graph.csr_build");
  Graph graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  csr.Count("edges", static_cast<double>(graph.num_edges()));
  times->csr_build = csr.End();
  LayerSpan weights(c.log, "graph.weights");
  Rng weight_rng(kWeightSeed);
  AssignWeights(graph, w.weights, 0.1, weight_rng);
  times->weights = weights.End();
  times->total = setup.End();
  return graph;
}

// Data preparation for the .imgrf workload (not part of set-up): streams
// the fixture BA graph into a sealed file with the weights baked in. The
// file is kept in the data directory and reused by later runs; one that
// no longer opens (torn, or written by another file format) is rewritten.
bool PrepareGraphFile(const RunConfig& c, std::string* path) {
  const Workload& w = *c.workload;
  std::error_code ec;
  std::filesystem::create_directories(c.data_dir, ec);
  *path = c.data_dir + "/" + w.name + "-fixture.imgrf";
  CompactGraph probe;
  std::string error;
  if (CompactGraph::Open(*path, &probe, &error) == GraphFileStatus::kOk) {
    return true;
  }
  Timer timer;
  Rng rng(kGraphSeed);
  EdgeList list = BarabasiAlbert(w.nodes, w.attach, rng);
  GraphFileStreamWriter::Options options;
  options.model = w.weights;
  options.weight_rng_seed = kWeightSeed;
  GraphFileStreamWriter writer(*path, w.nodes, options);
  for (const Arc& arc : list.arcs) writer.AddArc(arc.source, arc.target);
  list = EdgeList();
  if (!writer.Finish(&error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", path->c_str(),
                 error.c_str());
    return false;
  }
  std::printf("data prep: wrote %s in %.2f s\n", path->c_str(),
              timer.Seconds());
  return true;
}

// .imgrf set-up: map the file and verify both checksums.
bool SetUpCompactGraph(const RunConfig& c, const std::string& path,
                       CompactGraph* graph, SetupTimes* times) {
  LayerSpan setup(c.log, "setup");
  LayerSpan open(c.log, "graph.open");
  std::string error;
  const GraphFileStatus status = CompactGraph::Open(path, graph, &error);
  if (status != GraphFileStatus::kOk) {
    std::fprintf(stderr, "cannot open %s: %s (%s)\n", path.c_str(),
                 GraphFileStatusName(status), error.c_str());
    return false;
  }
  open.Count("mapped_bytes", static_cast<double>(graph->MappedBytes()));
  times->open = open.End();
  times->open_mb = HeapMiB(graph->MappedBytes());
  times->total = setup.End();
  return true;
}

// The workload's graph on its backend, set up repeatedly; the last build
// is kept. Reports set-up medians (end-to-end or per layer).
class Inputs {
 public:
  bool SetUp(const RunConfig& c, Report* report) {
    std::string path;
    if (c.workload->backend == Backend::kImgrf &&
        !PrepareGraphFile(c, &path)) {
      return false;
    }
    std::vector<SetupTimes> reps;
    Timer wall;
    while (reps.size() < kMinSetupReps || wall.Seconds() < kMinSetupSeconds) {
      if (c.log != nullptr) c.log->BeginOp("setup");
      heap_ = Graph();
      compact_ = CompactGraph();
      SetupTimes t;
      CpuTimer cpu;
      if (c.workload->backend == Backend::kHeap) {
        heap_ = SetUpHeapGraph(c, &t);
      } else if (!SetUpCompactGraph(c, path, &compact_, &t)) {
        return false;
      }
      t.cpu = cpu.Seconds();
      reps.push_back(t);
    }
    auto median_of = [&](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : reps) v.push_back(t.*field);
      return Median(v);
    };
    if (c.log == nullptr) {
      report->Set("setup_s", median_of(&SetupTimes::cpu), "s");
      report->Set("setup_heap_mb", HeapMiB(CurrentHeapBytes()), "MB");
    } else {
      const double open_s = median_of(&SetupTimes::open);
      report->Set("graph.generate_s", median_of(&SetupTimes::generate), "s");
      report->Set("graph.csr_build_s", median_of(&SetupTimes::csr_build), "s");
      report->Set("graph.weights_s", median_of(&SetupTimes::weights), "s");
      report->Set("graph.open_s", open_s, "s");
      report->Set("graph.open_mb_per_s",
                  open_s > 0 ? reps.back().open_mb / open_s : 0, "MB/s");
    }
    return true;
  }

  GraphView View() const {
    return compact_.mapped() ? GraphView(compact_) : GraphView(heap_);
  }
  const Graph& heap() const { return heap_; }

  void Bind(SelectionInput* input) const {
    if (compact_.mapped()) {
      input->compact = &compact_;
    } else {
      input->graph = &heap_;
    }
  }

 private:
  Graph heap_;
  CompactGraph compact_;
};

// ---------------------------------------------------------------- layers

std::unique_ptr<ImAlgorithm> MakeAlgorithm(const Workload& w) {
  if (w.technique == Technique::kTimPlus) {
    TimPlusOptions options;
    options.epsilon = w.epsilon;
    return std::make_unique<TimPlus>(options);
  }
  ImmOptions options;
  options.epsilon = w.epsilon;
  return std::make_unique<Imm>(options);
}

SpreadEstimate Evaluate(const RunConfig& c, const GraphView& graph,
                        std::span<const NodeId> seeds, uint32_t threads,
                        Trace* trace) {
  SpreadOptions options;
  options.simulations = c.workload->simulations;
  options.seed = McSeed(c);
  options.threads = threads;
  options.pool = c.pool;
  options.trace = trace;
  return EstimateSpread(graph, c.workload->diffusion, seeds, options);
}

// A full in-adjacency sweep through GraphView (decode on .imgrf, spans on
// the heap CSR); ns per arc, median of three sweeps.
void ProbeInSweep(const RunConfig& c, const GraphView& graph, Report* report) {
  std::vector<double> ns_per_arc;
  double checksum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    c.log->BeginOp("graph.in_sweep");
    LayerSpan span(c.log, "graph.in_sweep");
    AdjScratch scratch;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      for (const double weight : graph.In(v, scratch).weights) {
        checksum += weight;
      }
    }
    span.Count("arcs", static_cast<double>(graph.num_edges()));
    ns_per_arc.push_back(span.End() * 1e9 /
                         static_cast<double>(graph.num_edges()));
  }
  // Keeps the sweep observable, so the loads cannot be optimised away.
  report->Check(checksum > 0, "in-adjacency sweep read no weights");
  report->Set("graph.in_sweep_ns_per_arc", Median(ns_per_arc), "ns");
}

struct RrLayerTimes {
  double sample_s = 0;
  double index_s = 0;
  double cover_s = 0;
};

// Samples `count` RR sets on kThreads lanes and again on kCompareThreads,
// and times the inverted-index build, the full cover and a small
// (lazy-heap) cover on the first corpus. The two corpora must be
// byte-identical.
RrLayerTimes ProbeRr(const RunConfig& c, const GraphView& graph,
                     uint64_t count, Report* report) {
  const Workload& w = *c.workload;
  SamplerOptions options;
  options.kind = w.diffusion;
  options.pool = c.pool;
  // A 1% pilot sizes the arenas, so the timed runs — like the algorithms'
  // own final phases, which reserve from their earlier rounds — measure
  // sampling rather than arena regrowth.
  uint64_t entries = 0;
  {
    const uint64_t pilot_count = std::max<uint64_t>(count / 100, 64);
    RrCollection pilot(graph.num_nodes());
    MakeRrEngine(graph, options)->Generate(kSamplerSeed, pilot_count, pilot);
    entries = pilot.TotalEntries() * count / pilot_count * 11 / 10;
  }
  auto generate = [&](uint32_t threads, RrCollection* corpus,
                      uint64_t* edges) {
    c.log->BeginOp(threads == kThreads ? "rr.generate"
                                       : "rr.generate.compare");
    corpus->Reserve(count, entries);
    Trace trace;
    options.threads = threads;
    options.trace = &trace;
    LayerSpan span(c.log, "rr.generate");
    std::unique_ptr<RrEngine> engine = MakeRrEngine(graph, options);
    const RrBatchResult batch =
        engine->Generate(kSamplerSeed, count, *corpus);
    *edges = trace.Total(TraceCounter::kRrEdgesExamined);
    span.Count("sets", static_cast<double>(batch.generated));
    span.Count("edges_examined", static_cast<double>(*edges));
    report->Check(batch.stop == StopReason::kNone && batch.generated == count,
                  "RR generation stopped early");
    return span.End();
  };

  RrLayerTimes times;
  uint64_t edges = 0;
  uint64_t digest = 0;
  {
    RrCollection corpus(graph.num_nodes());
    times.sample_s = generate(kThreads, &corpus, &edges);
    digest = CorpusDigest(corpus);

    c.log->BeginOp("rr.cover");
    {
      LayerSpan span(c.log, "rr.index_build");
      corpus.SetsContainingAny({});
      times.index_s = span.End();
    }
    {
      LayerSpan span(c.log, "rr.cover");
      span.Count("entries", static_cast<double>(corpus.TotalEntries()));
      report->Check(corpus.GreedyMaxCover(w.k).size() == w.k,
                    "cover returned fewer than k seeds");
      times.cover_s = span.End();
    }
    std::vector<double> small;
    for (int rep = 0; rep < 20; ++rep) {
      LayerSpan span(c.log, "rr.cover_small");
      corpus.GreedyMaxCoverPrefix(w.k, kSmallCoverLimit);
      small.push_back(span.End());
    }
    report->Set("rr.sample_s", times.sample_s, "s");
    report->Set("rr.sets", static_cast<double>(count), "count");
    report->Set("rr.edges_examined", static_cast<double>(edges), "count");
    report->Set("rr.ns_per_edge",
                edges > 0 ? times.sample_s * 1e9 / static_cast<double>(edges)
                          : 0,
                "ns");
    report->Set("rr.index_build_s", times.index_s, "s");
    report->Set("rr.cover_s", times.cover_s, "s");
    report->Set("rr.cover_ns_per_entry",
                times.cover_s * 1e9 /
                    static_cast<double>(std::max<uint64_t>(
                        corpus.TotalEntries(), 1)),
                "ns");
    report->Set("rr.cover_small_s", Median(small), "s");
    report->Set("rr.corpus_mb", HeapMiB(corpus.MemoryBytes()), "MB");
  }
  RrCollection corpus_2t(graph.num_nodes());
  uint64_t edges_2t = 0;
  const double sample_2t = generate(kCompareThreads, &corpus_2t, &edges_2t);
  report->Check(CorpusDigest(corpus_2t) == digest && edges_2t == edges,
                "1-thread and 2-thread RR corpora differ");
  report->Set("rr.speedup_2t", times.sample_s / sample_2t, "ratio");
  return times;
}

// MC evaluation of `seeds` on kThreads lanes and on kCompareThreads; the
// estimates must be bit-identical.
void ProbeMc(const RunConfig& c, const GraphView& graph,
             std::span<const NodeId> seeds, Report* report) {
  double seconds[2] = {0, 0};
  double mean[2] = {0, 0};
  uint64_t blocks = 0;
  for (int i = 0; i < 2; ++i) {
    const uint32_t threads = i == 0 ? kThreads : kCompareThreads;
    c.log->BeginOp(i == 0 ? "mc.evaluate" : "mc.evaluate.compare");
    Trace trace;
    LayerSpan span(c.log, "mc.evaluate");
    mean[i] = Evaluate(c, graph, seeds, threads, &trace).mean;
    if (i == 0) blocks = trace.Total(TraceCounter::kFusedBlocks);
    span.Count("simulations",
               static_cast<double>(trace.Total(TraceCounter::kSimulations)));
    span.Count("fused_blocks",
               static_cast<double>(trace.Total(TraceCounter::kFusedBlocks)));
    seconds[i] = span.End();
  }
  report->Check(mean[0] == mean[1], "1-thread and 2-thread spreads differ");
  report->Set("mc.us_per_sim", seconds[0] * 1e6 / c.workload->simulations,
              "us");
  report->Set("mc.speedup_2t", seconds[0] / seconds[1], "ratio");
  report->Set("mc.fused_blocks", static_cast<double>(blocks), "count");
}

// Layers a workload does not exercise are reported as zero work.
void SetServiceLayersIdle(Report* report) {
  for (const char* name :
       {"service.cold_query_s", "service.warm_query_s",
        "service.topup_query_s", "service.repair_query_s"}) {
    report->Set(name, 0, "s");
  }
  report->Set("service.sets_repaired", 0, "count");
  report->Set("service.reuse_frac", 0, "ratio");
  report->Set("service.publish_s", 0, "s");
  report->Set("service.publish_ns_per_arc", 0, "ns");
  report->Set("service.checkpoint_save_s", 0, "s");
  report->Set("service.checkpoint_load_s", 0, "s");
  report->Set("service.checkpoint_mb", 0, "MB");
}

// ---------------------------------------------------------------- one-shot

struct SelectRun {
  SelectionResult result;
  double seconds = 0;  // wall
  double cpu_seconds = 0;
  uint64_t peak_bytes = 0;  // above the heap held when Select started
};

SelectRun TimedSelect(ImAlgorithm& algorithm, const SelectionInput& input,
                      SpanLog* log) {
  SelectRun run;
  ResetPeakHeapBytes();
  const uint64_t base = CurrentHeapBytes();
  CpuTimer cpu;
  LayerSpan span(log, "algo.select");
  run.result = algorithm.Select(input);
  run.seconds = span.End();
  run.cpu_seconds = cpu.Seconds();
  run.peak_bytes = PeakHeapBytes() - base;
  return run;
}

void RunOneShot(const RunConfig& c, Report* report) {
  const Workload& w = *c.workload;
  Inputs inputs;
  if (!inputs.SetUp(c, report)) {
    report->Check(false, "set-up failed");
    return;
  }
  const GraphView graph = inputs.View();
  std::unique_ptr<ImAlgorithm> algorithm = MakeAlgorithm(w);
  SelectionInput input;
  inputs.Bind(&input);
  input.diffusion = w.diffusion;
  input.seed = kSamplerSeed;
  input.threads = kThreads;
  input.pool = c.pool;
  input.k = w.k;

  // Selection inputs are fixtures, so every run must select the recorded
  // seeds; the spread, estimated on --seed's MC streams, must lie within
  // five standard errors of the difference from the recorded one.
  auto valid = [&](const SelectionResult& r) {
    return r.complete() && r.seeds.size() == w.k &&
           SeedsDigest(r.seeds) == w.reference_digest;
  };
  auto matches_reference = [&](const SpreadEstimate& e) {
    std::printf("reference check: spread %.6f (stderr %.4f), recorded "
                "%.6f; recorded seeds digest 0x%016llx\n",
                e.mean, e.StdError(), w.reference_spread,
                static_cast<unsigned long long>(w.reference_digest));
    return std::abs(e.mean - w.reference_spread) <=
           5 * std::sqrt(2.0) * e.StdError();
  };

  if (c.log == nullptr) {
    std::vector<double> select_s, evaluate_s, query_s, peak_mb, op_wall;
    double first_spread = 0;
    Timer wall;
    while (StartAnother(wall, op_wall, c.seconds)) {
      Timer op_timer;
      const SelectRun run = TimedSelect(*algorithm, input, nullptr);
      for (uint32_t extra = 1; extra < w.selects_per_op; ++extra) {
        const SelectRun again = TimedSelect(*algorithm, input, nullptr);
        report->Check(valid(again.result),
                      "an op returned other seeds than recorded");
        select_s.push_back(again.cpu_seconds);
      }
      Timer eval_timer;
      CpuTimer eval_cpu;
      const SpreadEstimate estimate =
          Evaluate(c, graph, run.result.seeds, kThreads, nullptr);
      const double eval = eval_cpu.Seconds();
      const double eval_wall = eval_timer.Seconds();
      const double spread = estimate.mean;
      if (query_s.empty()) {
        std::printf("selected seeds digest 0x%016llx\n",
                    static_cast<unsigned long long>(
                        SeedsDigest(run.result.seeds)));
        report->Check(matches_reference(estimate),
                      "spread differs from the recorded reference");
        first_spread = spread;
      }
      report->Check(valid(run.result) && spread == first_spread,
                    "an op returned other seeds or spread than recorded");
      std::printf("op %zu: select %.4f cpu-s (%.4f s wall), evaluate %.4f "
                  "cpu-s (%.4f s wall)\n",
                  query_s.size(), run.cpu_seconds, run.seconds, eval,
                  eval_wall);
      select_s.push_back(run.cpu_seconds);
      evaluate_s.push_back(eval);
      query_s.push_back(run.cpu_seconds + eval);
      peak_mb.push_back(HeapMiB(run.peak_bytes));
      op_wall.push_back(op_timer.Seconds());
    }
    std::printf("one-shot: %zu ops of select(k=%u) + evaluate(%u sims)\n",
                query_s.size(), w.k, w.simulations);
    report->Set("select_s", Median(select_s), "s");
    report->Set("evaluate_s", Median(evaluate_s), "s");
    report->Set("peak_heap_mb", Median(peak_mb), "MB");
    report->Set("spread", first_spread, "nodes");
    report->Set("query_p50_s", Median(query_s), "s");
    report->Set("query_p90_s", Quantile(query_s, 0.9), "s");
    report->Set("ops_per_s",
                static_cast<double>(query_s.size()) / Sum(query_s), "ops/s");
    return;
  }

  ProbeInSweep(c, graph, report);
  // The 2-lane select goes first: the first select of a process also pays
  // for faulting in fresh heap, which would bias trace.overhead_frac.
  c.log->BeginOp("select.compare");
  input.threads = kCompareThreads;
  const SelectRun compare = TimedSelect(*algorithm, input, c.log);
  input.threads = kThreads;
  c.log->BeginOp("select.untraced");
  const SelectRun untraced = TimedSelect(*algorithm, input, c.log);
  c.log->BeginOp("select.traced");
  Trace trace;
  input.trace = &trace;
  const SelectRun traced = TimedSelect(*algorithm, input, c.log);
  input.trace = nullptr;
  report->Check(valid(untraced.result),
                "select did not return the recorded seeds");
  report->Check(valid(traced.result) &&
                    traced.result.seeds == untraced.result.seeds,
                "traced select returned other seeds");
  report->Check(valid(compare.result) &&
                    compare.result.seeds == traced.result.seeds,
                "1-thread and 2-thread selects returned other seeds");

  const RrLayerTimes rr =
      ProbeRr(c, graph, trace.Total(TraceCounter::kRrSets), report);
  ProbeMc(c, graph, traced.result.seeds, report);
  report->Set("algo.select_other_s",
              traced.seconds - rr.sample_s - rr.index_s - rr.cover_s, "s");
  SetServiceLayersIdle(report);
  report->Set("trace.overhead_frac",
              (traced.cpu_seconds - untraced.cpu_seconds) /
                  untraced.cpu_seconds,
              "ratio");
}

// ---------------------------------------------------------------- serve

struct ServeOp {
  bool query = true;
  uint32_t k = 0;
  bool add = false;  // mutation: AddEdges, else UpdateWeights
  std::vector<WeightedArc> arcs;
};

// Op stream number `stream` of the seed, for one closed-loop client. It
// opens with a cold k=50 query and closes on a k=50 query, whose seeds the
// gate checks. In between, a fixed mix in seeded order: 58 queries, k in
// {10, 20, 50} (warm hits; the first k below 50 tops the corpus up), and
// 20 mutations (half AddEdges, half UpdateWeights) of 1-4 arcs each, each
// followed by a query, so every replay repairs the corpus 20 times. Two
// mutations target BA hubs (the 32 oldest nodes); the rest target random
// other nodes. The mix is fixed so that every stream does comparable work;
// the seed and the stream number pick the order and the arcs. Updates name
// arcs of the initial graph, which later snapshots keep.
std::vector<ServeOp> MakeServeOps(const RunConfig& c, const Graph& graph,
                                  uint64_t stream) {
  constexpr int kQueries = 58;
  constexpr int kMutations = 20;
  constexpr int kHubMutations = 2;
  constexpr NodeId kHubs = 32;
  static_assert(kQueries + kMutations + 2 == kServeOps);
  constexpr uint32_t kQueryK[] = {10, 20, 50};
  Rng rng = Rng::ForStream(c.seed, 0x5e7e + stream);
  const NodeId n = graph.num_nodes();

  auto shuffle = [&](auto& items) {
    for (size_t i = items.size() - 1; i > 0; --i) {
      std::swap(items[i], items[rng.NextU32(static_cast<uint32_t>(i + 1))]);
    }
  };
  std::vector<ServeOp> queries(kQueries);
  for (int i = 0; i < kQueries; ++i) queries[i].k = kQueryK[i % 3];
  std::vector<ServeOp> mutations(kMutations);
  for (int i = 0; i < kMutations; ++i) {
    ServeOp& op = mutations[i];
    op.query = false;
    op.add = i % 2 == 0;
    const bool hub = i < kHubMutations;
    const uint32_t count = 1 + (i / 2) % 4;
    while (op.arcs.size() < count) {
      const NodeId target =
          hub ? rng.NextU32(kHubs) : kHubs + rng.NextU32(n - kHubs);
      if (op.add) {
        const NodeId source = rng.NextU32(n);
        if (source != target) op.arcs.push_back({source, target, 0.05});
      } else if (graph.InDegree(target) > 0) {
        const auto sources = graph.InSources(target);
        op.arcs.push_back(
            {sources[rng.NextU32(static_cast<uint32_t>(sources.size()))],
             target, 0.01 + 0.2 * rng.NextDouble()});
      }
    }
  }
  shuffle(queries);
  shuffle(mutations);
  // Mutation j goes right after query gap[j]: distinct gaps, so no two
  // mutations are adjacent.
  std::vector<int> gap(kQueries);
  for (int i = 0; i < kQueries; ++i) gap[i] = i;
  shuffle(gap);
  gap.resize(kMutations);
  std::sort(gap.begin(), gap.end());

  std::vector<ServeOp> ops(1);
  ops.front().k = 50;
  size_t next_mutation = 0;
  for (int i = 0; i < kQueries; ++i) {
    ops.push_back(queries[i]);
    if (next_mutation < gap.size() && gap[next_mutation] == i) {
      ops.push_back(mutations[next_mutation++]);
    }
  }
  ops.emplace_back().k = 50;
  return ops;
}

enum class QueryClass { kCold, kWarm, kTopUp, kRepair };

// A query that grows the corpus is a top-up even when it also repairs.
QueryClass Classify(const ImQueryResult& r) {
  if (r.sets_sampled > 0) {
    return r.sets_reused == 0 ? QueryClass::kCold : QueryClass::kTopUp;
  }
  return r.sets_repaired > 0 ? QueryClass::kRepair : QueryClass::kWarm;
}

// Per-class and publish times are wall (per-layer metrics); the warm_*
// figures are CPU time (end-to-end metrics).
struct StreamRun {
  std::vector<double> query_s[4];  // by QueryClass
  std::vector<double> publish_s;
  std::vector<double> warm_query_cpu_s;  // every query but the cold first
  double warm_ops_cpu_s = 0;             // every op but the cold first query
  uint64_t warm_ops = 0;
  uint64_t sets_repaired = 0, sets_reused = 0, sets_used = 0;
  uint64_t peak_bytes = 0;
  std::vector<NodeId> last_seeds;
  std::shared_ptr<const Graph> final_graph;
};

ServiceOptions MakeServiceOptions(const RunConfig& c, Trace* trace) {
  ServiceOptions options;
  options.kind = c.workload->diffusion;
  options.epsilon = c.workload->epsilon;
  options.seed = kSamplerSeed;
  options.threads = kThreads;
  options.pool = c.pool;
  options.trace = trace;
  return options;
}

// Replays the op stream on a fresh store and service over `graph`.
StreamRun ReplayStream(const RunConfig& c, const Graph& graph,
                       const std::vector<ServeOp>& ops, Report* report) {
  StreamRun run;
  ResetPeakHeapBytes();
  const uint64_t base = CurrentHeapBytes();
  EpochGraphStore store(graph.Clone());
  ImService service(store, MakeServiceOptions(c, nullptr));
  for (size_t i = 0; i < ops.size(); ++i) {
    const ServeOp& op = ops[i];
    if (c.log != nullptr) c.log->BeginOp(op.query ? "query" : "mutation");
    if (!op.query) {
      CpuTimer cpu;
      LayerSpan span(c.log, "service.publish");
      span.Count("arcs", static_cast<double>(op.arcs.size()));
      const uint64_t epoch = store.epoch();
      if (op.add) {
        store.AddEdges(op.arcs);
      } else {
        store.UpdateWeights(op.arcs);
      }
      run.publish_s.push_back(span.End());
      run.warm_ops_cpu_s += cpu.Seconds();
      report->Check(store.epoch() == epoch + 1, "publish did not advance");
      ++run.warm_ops;
      continue;
    }
    ImQuery query;
    query.k = op.k;
    CpuTimer cpu;
    LayerSpan span(c.log, "service.query");
    const ImQueryResult r = service.Query(query);
    span.Count("sets_sampled", static_cast<double>(r.sets_sampled));
    span.Count("sets_reused", static_cast<double>(r.sets_reused));
    span.Count("sets_repaired", static_cast<double>(r.sets_repaired));
    run.query_s[static_cast<int>(Classify(r))].push_back(span.End());
    const double cpu_seconds = cpu.Seconds();
    report->Check(r.complete() && r.degraded == DegradeMode::kNone &&
                      r.seeds.size() == op.k,
                  "query incomplete or degraded");
    if (i > 0) {
      run.warm_query_cpu_s.push_back(cpu_seconds);
      run.warm_ops_cpu_s += cpu_seconds;
      ++run.warm_ops;
    }
    run.sets_repaired += r.sets_repaired;
    run.sets_reused += r.sets_reused;
    run.sets_used += r.sets_used;
    run.last_seeds = r.seeds;
  }
  run.peak_bytes = PeakHeapBytes() - base;
  run.final_graph = store.Current().graph;
  return run;
}

// A cold service on `graph` answering the workload's k: the gate's
// reference seeds, and the service's from-scratch selection time (wall in
// `seconds`, CPU in `cpu_seconds`).
ImQueryResult ColdReference(const RunConfig& c, const Graph& graph,
                            Trace* trace, double* seconds,
                            double* cpu_seconds) {
  EpochGraphStore store(graph.Clone());
  ImService service(store, MakeServiceOptions(c, trace));
  ImQuery query;
  query.k = c.workload->k;
  CpuTimer cpu;
  LayerSpan span(c.log, "service.cold_reference");
  ImQueryResult result = service.Query(query);
  *seconds = span.End();
  *cpu_seconds = cpu.Seconds();
  return result;
}

void RunServe(const RunConfig& c, Report* report) {
  const Workload& w = *c.workload;
  Inputs inputs;
  if (!inputs.SetUp(c, report)) {
    report->Check(false, "set-up failed");
    return;
  }
  const Graph& graph = inputs.heap();

  if (c.log == nullptr) {
    // Every replay plays another op stream of the seed: which arcs mutate
    // sets the repair costs, the corpus' peak and the served seeds, and a
    // run that pooled one stream's queries read 8-9% apart from the next
    // seed's on query_p90_s and ops_per_s. Each replay is followed by the
    // service's from-scratch selection (cold builds on the final snapshot,
    // also the gate's reference) and the MC evaluation of the served seeds,
    // so every metric samples the whole run rather than one burst at its
    // end.
    constexpr int kColdBuilds = 2;
    constexpr int kEvaluations = 4;
    std::vector<double> select_s, evaluate_s, query_s, peak_mb, spreads,
        replay_wall;
    double warm_ops_cpu_s = 0;
    uint64_t warm_ops = 0;
    Timer wall;
    while (StartAnother(wall, replay_wall, c.seconds)) {
      Timer replay_timer;
      const StreamRun run = ReplayStream(
          c, graph, MakeServeOps(c, graph, replay_wall.size()), report);
      query_s.insert(query_s.end(), run.warm_query_cpu_s.begin(),
                     run.warm_query_cpu_s.end());
      peak_mb.push_back(HeapMiB(run.peak_bytes));
      warm_ops_cpu_s += run.warm_ops_cpu_s;
      warm_ops += run.warm_ops;
      for (int rep = 0; rep < kColdBuilds; ++rep) {
        double seconds = 0, cpu_seconds = 0;
        const ImQueryResult cold = ColdReference(c, *run.final_graph, nullptr,
                                                 &seconds, &cpu_seconds);
        select_s.push_back(cpu_seconds);
        report->Check(cold.complete() && cold.seeds == run.last_seeds,
                      "served seeds differ from a cold rebuild");
      }
      double spread = -1;
      for (int rep = 0; rep < kEvaluations; ++rep) {
        CpuTimer cpu;
        const double mean = Evaluate(c, *run.final_graph, run.last_seeds,
                                     kThreads, nullptr).mean;
        evaluate_s.push_back(cpu.Seconds());
        report->Check(spread < 0 || mean == spread,
                      "evaluations of the served seeds differ");
        spread = mean;
      }
      spreads.push_back(spread);
      replay_wall.push_back(replay_timer.Seconds());
      std::printf("replay %zu: %.2f s wall\n", replay_wall.size() - 1,
                  replay_wall.back());
    }
    std::printf("serve: %zu replays of %d-op streams, %zu warm query "
                "samples, %zu cold builds\n",
                replay_wall.size(), kServeOps, query_s.size(),
                select_s.size());
    report->Set("select_s", Median(select_s), "s");
    report->Set("evaluate_s", Median(evaluate_s), "s");
    report->Set("peak_heap_mb", Median(peak_mb), "MB");
    report->Set("spread", Median(spreads), "nodes");
    report->Set("query_p50_s", Median(query_s), "s");
    report->Set("query_p90_s", Quantile(query_s, 0.9), "s");
    report->Set("ops_per_s", static_cast<double>(warm_ops) / warm_ops_cpu_s,
                "ops/s");
    return;
  }

  ProbeInSweep(c, graph, report);
  const StreamRun run =
      ReplayStream(c, graph, MakeServeOps(c, graph, 0), report);
  const Graph& final_graph = *run.final_graph;
  c.log->BeginOp("select.untraced");
  double untraced_s = 0, untraced_cpu_s = 0;
  const ImQueryResult reference = ColdReference(c, final_graph, nullptr,
                                                &untraced_s, &untraced_cpu_s);
  c.log->BeginOp("select.traced");
  Trace trace;
  double traced_s = 0, traced_cpu_s = 0;
  const ImQueryResult traced =
      ColdReference(c, final_graph, &trace, &traced_s, &traced_cpu_s);
  report->Check(run.last_seeds == reference.seeds &&
                    traced.seeds == reference.seeds,
                "served seeds differ from a cold rebuild");

  // Checkpoint round trip of a warm corpus on the final snapshot.
  c.log->BeginOp("checkpoint");
  const std::string ckpt = c.data_dir + "/serve-mix.ckpt";
  std::error_code ec;
  std::filesystem::create_directories(c.data_dir, ec);
  EpochGraphStore store(final_graph.Clone());
  ImService service(store, MakeServiceOptions(c, nullptr));
  ImQuery query;
  query.k = w.k;
  service.Query(query);
  std::string detail;
  LayerSpan save_span(c.log, "service.checkpoint_save");
  const bool saved = service.SaveCheckpoint(ckpt, &detail);
  const double save_s = save_span.End();
  const double ckpt_mb =
      HeapMiB(static_cast<uint64_t>(std::filesystem::file_size(ckpt, ec)));
  ImService restarted(store, MakeServiceOptions(c, nullptr));
  LayerSpan load_span(c.log, "service.checkpoint_load");
  const CheckpointStatus loaded = restarted.LoadCheckpoint(ckpt, &detail);
  const double load_s = load_span.End();
  const ImQueryResult recovered = restarted.Query(query);
  std::filesystem::remove(ckpt, ec);
  report->Check(saved && loaded == CheckpointStatus::kOk &&
                    recovered.sets_sampled == 0 &&
                    recovered.seeds == reference.seeds,
                "checkpoint round trip did not serve the reference seeds");

  const RrLayerTimes rr = ProbeRr(
      c, final_graph,
      ImService::RequiredSets(graph.num_nodes(), w.k, w.epsilon), report);
  ProbeMc(c, final_graph, reference.seeds, report);
  report->Set("algo.select_other_s",
              traced_s - rr.sample_s - rr.index_s - rr.cover_s, "s");
  const double publish_s = Median(run.publish_s);
  report->Set("service.cold_query_s", Median(run.query_s[0]), "s");
  report->Set("service.warm_query_s", Median(run.query_s[1]), "s");
  report->Set("service.topup_query_s", Median(run.query_s[2]), "s");
  report->Set("service.repair_query_s", Median(run.query_s[3]), "s");
  report->Set("service.sets_repaired", static_cast<double>(run.sets_repaired),
              "count");
  report->Set("service.reuse_frac",
              static_cast<double>(run.sets_reused) /
                  static_cast<double>(std::max<uint64_t>(run.sets_used, 1)),
              "ratio");
  report->Set("service.publish_s", publish_s, "s");
  report->Set("service.publish_ns_per_arc",
              publish_s * 1e9 / static_cast<double>(graph.num_edges()), "ns");
  report->Set("service.checkpoint_save_s", save_s, "s");
  report->Set("service.checkpoint_load_s", load_s, "s");
  report->Set("service.checkpoint_mb", ckpt_mb, "MB");
  report->Set("trace.overhead_frac",
              (traced_cpu_s - untraced_cpu_s) / untraced_cpu_s,
              "ratio");
}

// ---------------------------------------------------------------- main

uint32_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<uint32_t>(CPU_COUNT(&set));
}

std::string ProvenanceJson(const RunConfig& c, const std::string& commit,
                           const std::string& source_digest, int trace) {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.3f, "
      "\"trace\": %d, \"git_commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"nproc\": %u, \"threads\": %u, \"build_type\": \"%s\", "
      "\"pinned_build_type\": \"%s\", \"build_type_pinned\": %s, "
      "\"cxx_flags\": \"%s\", \"compiler\": \"%s\", \"l3_bytes\": %ld}",
      c.workload->name, static_cast<unsigned long long>(c.seed), c.seconds,
      trace, commit.c_str(), source_digest.c_str(), AffinityCpus(), kThreads,
      PERFBENCH_BUILD_TYPE, PERFBENCH_PINNED_BUILD_TYPE,
      std::string_view(PERFBENCH_BUILD_TYPE) == PERFBENCH_PINNED_BUILD_TYPE
          ? "true"
          : "false",
      PERFBENCH_CXX_FLAGS, PERFBENCH_COMPILER, l3);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("imbench end-to-end and per-layer benchmark driver");
  std::string* workload_name =
      flags.AddString("workload", "", "imm-wc|timplus-lt|imm-imgrf|serve-mix");
  int64_t* seed =
      flags.AddInt("seed", 1, "workload seed (every input derives from it)");
  double* seconds = flags.AddDouble("seconds", 10, "measurement seconds");
  int64_t* trace = flags.AddInt("trace", 0, "1: per-layer traced run");
  std::string* data_dir = flags.AddString(
      "data-dir", ".bench_build/data", "generated inputs and scratch files");
  std::string* spans_out = flags.AddString(
      "spans-out", "", "traced run: write the span log here at exit");
  std::string* commit = flags.AddString("git-commit", "unknown",
                                        "provenance: source commit");
  std::string* source_digest = flags.AddString(
      "source-digest", "unknown", "provenance: digest of the source tree");
  flags.Parse(argc, argv);

  RunConfig config;
  for (const Workload& w : kWorkloads) {
    if (*workload_name == w.name) config.workload = &w;
  }
  if (config.workload == nullptr || *seed < 0 || *seconds <= 0 ||
      (*trace != 0 && *trace != 1)) {
    std::fprintf(stderr, "perfbench: bad --workload/--seed/--seconds/--trace "
                         "(see --help)\n");
    return 2;
  }
  config.seed = static_cast<uint64_t>(*seed);
  config.seconds = *seconds;
  config.data_dir = *data_dir;
  // The caller is lane 0; one worker makes kCompareThreads lanes.
  ThreadPool pool(kCompareThreads - 1);
  config.pool = &pool;
  SpanLog log;
  if (*trace == 1) config.log = &log;

  const std::string provenance =
      ProvenanceJson(config, *commit, *source_digest, static_cast<int>(*trace));
  std::printf("provenance: %s\n", provenance.c_str());
  if (std::string_view(PERFBENCH_BUILD_TYPE) != PERFBENCH_PINNED_BUILD_TYPE) {
    std::printf("WARNING: built as '%s', not the pinned '%s'; results are "
                "not comparable with the baseline\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_PINNED_BUILD_TYPE);
  }
  std::fflush(stdout);

  Report report;
  if (config.workload->shape == Shape::kServe) {
    RunServe(config, &report);
  } else {
    RunOneShot(config, &report);
  }
  if (config.log != nullptr && !spans_out->empty() &&
      !log.WriteJson(*spans_out, provenance)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out->c_str());
    return 1;
  }
  report.Print();
  return 0;
}
