// Serve-mode perf smoke for the always-on IM query service: one BA/WC
// graph, one service, and the full latency ladder a long-lived deployment
// walks — cold build, warm reuse, mutation publish and repair, checkpoint
// warm-start, and chaos (fault-injected) queries. Writes the latencies and the
// correctness cross-checks as JSON; CI archives it (BENCH_service.json) so
// the serve-path perf trajectory is tracked commit over commit.
//
//   ./service_smoke --nodes=20000 --k=20 --epsilon=4 --out=BENCH_service.json
//
// Every row is also a determinism assertion: the warm, repaired,
// checkpoint-recovered and retried queries must all serve seeds
// byte-identical to the reference cold query on the same snapshot — a
// faster path that changes the answer is a bug, not a speedup.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "framework/fault.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/weights.h"
#include "service/epoch_graph_store.h"
#include "service/im_service.h"

using namespace imbench;

namespace {

FaultPlan OneRule(std::string_view site, uint64_t hit, uint64_t fires) {
  FaultRule rule;
  rule.site = std::string(site);
  rule.fire_on_hit = hit;
  rule.max_fires = fires;
  FaultPlan plan;
  plan.rules.push_back(rule);
  return plan;
}

bool SameSeeds(const std::vector<NodeId>& a, const std::vector<NodeId>& b,
               const char* what) {
  if (a == b) return true;
  std::fprintf(stderr, "FATAL: %s diverged from the cold reference seeds\n",
               what);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("always-on IM service perf smoke");
  int64_t* nodes = flags.AddInt("nodes", 20000, "BA graph nodes");
  int64_t* attach = flags.AddInt("attach", 5, "BA attachments per node");
  int64_t* k = flags.AddInt("k", 20, "seeds per query");
  double* epsilon = flags.AddDouble("epsilon", 4.0, "query accuracy");
  int64_t* seed = flags.AddInt("seed", 7, "RNG seed");
  int64_t* threads = flags.AddInt("threads", 0, "top-up threads (0 = all)");
  std::string* out =
      flags.AddString("out", "BENCH_service.json", "JSON output path");
  flags.Parse(argc, argv);

  Rng graph_rng(static_cast<uint64_t>(*seed));
  EdgeList list = BarabasiAlbert(static_cast<NodeId>(*nodes),
                                 static_cast<uint32_t>(*attach), graph_rng);
  Graph graph = Graph::FromArcs(list.num_nodes, std::move(list.arcs));
  AssignWeightedCascade(graph);
  std::printf("graph: %u nodes, %llu edges (BA, WC weights)\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  ServiceOptions options;
  options.kind = DiffusionKind::kIndependentCascade;
  options.epsilon = *epsilon;
  options.seed = static_cast<uint64_t>(*seed) + 1;
  options.threads = static_cast<uint32_t>(*threads);
  options.retry_backoff_seconds = 0;  // measure work, not sleeps

  ImQuery query;
  query.k = static_cast<uint32_t>(*k);
  const uint64_t required = ImService::RequiredSets(
      graph.num_nodes(), query.k, *epsilon);
  std::printf("theta(n=%u, k=%u, eps=%.2f) = %llu RR sets\n",
              graph.num_nodes(), query.k, *epsilon,
              static_cast<unsigned long long>(required));

  EpochGraphStore store(graph.Clone());
  ImService service(store, options);
  Timer timer;

  // --- Cold: the one-shot bill every stateless run pays. ---
  timer.Restart();
  const ImQueryResult cold = service.Query(query);
  const double cold_seconds = timer.Seconds();
  if (!cold.complete() || cold.sets_sampled == 0) {
    std::fprintf(stderr, "FATAL: cold query did not sample a corpus\n");
    return 1;
  }

  // --- Warm: repeat query, straight to cover. ---
  timer.Restart();
  const ImQueryResult warm = service.Query(query);
  const double warm_seconds = timer.Seconds();
  if (warm.sets_sampled != 0 || !SameSeeds(cold.seeds, warm.seeds, "warm")) {
    return 1;
  }

  // --- Repair: mutate in-edges of the BA hubs (low-index nodes appear in
  // many RR sets, so this is the expensive end of repair), then query. ---
  std::vector<WeightedArc> arcs;
  const NodeId n = graph.num_nodes();
  for (NodeId i = 0; i < 32 && i < n; ++i) {
    const NodeId source = n - 1 - i;
    if (source != i) arcs.push_back({source, i, 0.05});
  }
  timer.Restart();
  store.AddEdges(arcs);
  const double publish_seconds = timer.Seconds();
  timer.Restart();
  const ImQueryResult repaired = service.Query(query);
  const double repair_seconds = timer.Seconds();
  if (repaired.sets_repaired == 0 || repaired.degraded != DegradeMode::kNone) {
    std::fprintf(stderr, "FATAL: mutation did not exercise warm repair\n");
    return 1;
  }
  // Reference for everything below: a cold service on the post-mutation
  // snapshot must agree with the repaired warm corpus.
  EpochGraphStore ref_store(store.Current().graph->Clone());
  ImService ref_service(ref_store, options);
  const ImQueryResult reference = ref_service.Query(query);
  if (!SameSeeds(reference.seeds, repaired.seeds, "repair")) return 1;

  // --- Checkpoint: save the warm corpus, recover it in a "restarted"
  // service, and serve the first query without sampling. ---
  const std::string ckpt_path = *out + ".ckpt";
  std::string detail;
  timer.Restart();
  if (!service.SaveCheckpoint(ckpt_path, &detail)) {
    std::fprintf(stderr, "FATAL: checkpoint save failed: %s\n",
                 detail.c_str());
    return 1;
  }
  const double save_seconds = timer.Seconds();
  uint64_t ckpt_bytes = 0;
  if (std::FILE* f = std::fopen(ckpt_path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    ckpt_bytes = static_cast<uint64_t>(std::ftell(f));
    std::fclose(f);
  }
  EpochGraphStore store2(store.Current().graph->Clone());
  ImService recovered(store2, options);
  timer.Restart();
  const SealedStatus status = recovered.LoadCheckpoint(ckpt_path, &detail);
  const double load_seconds = timer.Seconds();
  if (status != SealedStatus::kOk) {
    std::fprintf(stderr, "FATAL: checkpoint recovery refused: %s\n",
                 detail.c_str());
    return 1;
  }
  timer.Restart();
  const ImQueryResult warm_start = recovered.Query(query);
  const double warm_start_seconds = timer.Seconds();
  if (warm_start.sets_sampled != 0 ||
      !SameSeeds(reference.seeds, warm_start.seeds, "checkpoint warm-start")) {
    return 1;
  }
  std::remove(ckpt_path.c_str());

  // --- Chaos: the self-healing overhead. A transient arena fault is
  // retried in place, and so is one that lasts the whole retry budget
  // (kTransientRetries). Both must still serve the reference seeds. ---
  double retry_seconds = 0;
  uint32_t retry_retries = 0;
  {
    ScopedFaultPlan scoped(OneRule(faultsite::kRrArenaGrow, 1, 1));
    EpochGraphStore chaos_store(store.Current().graph->Clone());
    ImService chaos(chaos_store, options);
    timer.Restart();
    const ImQueryResult result = chaos.Query(query);
    retry_seconds = timer.Seconds();
    retry_retries = result.retries;
    if (result.retries == 0 || result.degraded != DegradeMode::kNone ||
        !SameSeeds(reference.seeds, result.seeds, "transient-retry")) {
      std::fprintf(stderr, "FATAL: transient fault was not retried\n");
      return 1;
    }
  }
  double budget_seconds = 0;
  uint32_t budget_retries = 0;
  {
    // fires=kTransientRetries fails every attempt but the last one the
    // budget allows, each on its first set.
    ScopedFaultPlan scoped(OneRule(faultsite::kRrArenaGrow, 1,
                                   kTransientRetries));
    EpochGraphStore chaos_store(store.Current().graph->Clone());
    ImService chaos(chaos_store, options);
    timer.Restart();
    const ImQueryResult result = chaos.Query(query);
    budget_seconds = timer.Seconds();
    budget_retries = result.retries;
    if (!result.complete() || result.retries != kTransientRetries ||
        result.degraded != DegradeMode::kNone ||
        !SameSeeds(reference.seeds, result.seeds, "retry-budget")) {
      std::fprintf(stderr,
                   "FATAL: a fault within the retry budget was not served "
                   "by %u retries\n",
                   kTransientRetries);
      return 1;
    }
  }

  const double warm_speedup = cold_seconds / warm_seconds;
  const double repair_speedup = cold_seconds / repair_seconds;
  const double warm_start_speedup = cold_seconds / warm_start_seconds;
  const double repaired_fraction =
      static_cast<double>(repaired.sets_repaired) /
      static_cast<double>(repaired.sets_used > 0 ? repaired.sets_used : 1);
  std::printf("cold: %.3fs (%llu sets)\n", cold_seconds,
              static_cast<unsigned long long>(cold.sets_sampled));
  std::printf("warm: %.6fs (%.0fx, %llu sets reused)\n", warm_seconds,
              warm_speedup, static_cast<unsigned long long>(warm.sets_reused));
  std::printf("publish: %.6fs (%zu arcs)\n", publish_seconds, arcs.size());
  std::printf("repair: %.3fs (%.2fx, %llu/%llu sets regenerated)\n",
              repair_seconds, repair_speedup,
              static_cast<unsigned long long>(repaired.sets_repaired),
              static_cast<unsigned long long>(repaired.sets_used));
  std::printf("checkpoint: save %.3fs, load %.3fs (%.1f MB), warm-start "
              "query %.6fs (%.0fx)\n",
              save_seconds, load_seconds,
              static_cast<double>(ckpt_bytes) / 1048576.0,
              warm_start_seconds, warm_start_speedup);
  std::printf("chaos: transient retry %.3fs (%u retries), retry budget "
              "%.3fs (%u retries)\n",
              retry_seconds, retry_retries, budget_seconds, budget_retries);

  std::FILE* f = std::fopen(out->c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out->c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"graph\": {\"generator\": \"ba\", \"nodes\": %u, \"edges\": %llu, "
      "\"weights\": \"WC\"},\n"
      "  \"k\": %u,\n"
      "  \"epsilon\": %.3f,\n"
      "  \"threads\": %u,\n"
      "  \"required_sets\": %llu,\n"
      "  \"cold\": {\"seconds\": %.6f, \"sets_sampled\": %llu},\n"
      "  \"warm\": {\"seconds\": %.6f, \"sets_reused\": %llu, "
      "\"speedup_vs_cold\": %.1f},\n"
      "  \"publish\": {\"seconds\": %.6f, \"arcs\": %zu},\n"
      "  \"repair\": {\"seconds\": %.6f, \"sets_repaired\": %llu, "
      "\"repaired_fraction\": %.4f, \"speedup_vs_cold\": %.2f},\n"
      "  \"checkpoint\": {\"save_seconds\": %.6f, \"load_seconds\": %.6f, "
      "\"file_bytes\": %llu, \"warm_start_seconds\": %.6f, "
      "\"warm_start_speedup\": %.1f},\n"
      "  \"chaos\": {\"transient_retry_seconds\": %.6f, \"retries\": %u, "
      "\"budget_retry_seconds\": %.6f, \"budget_retries\": %u}\n"
      "}\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      query.k, *epsilon, options.threads,
      static_cast<unsigned long long>(required), cold_seconds,
      static_cast<unsigned long long>(cold.sets_sampled), warm_seconds,
      static_cast<unsigned long long>(warm.sets_reused), warm_speedup,
      publish_seconds, arcs.size(), repair_seconds,
      static_cast<unsigned long long>(repaired.sets_repaired),
      repaired_fraction, repair_speedup, save_seconds, load_seconds,
      static_cast<unsigned long long>(ckpt_bytes), warm_start_seconds,
      warm_start_speedup, retry_seconds, retry_retries, budget_seconds,
      budget_retries);
  std::fclose(f);
  std::printf("wrote %s\n", out->c_str());
  return 0;
}
