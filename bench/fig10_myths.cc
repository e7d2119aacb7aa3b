// Fig. 10 + Table 4 (myths M4, M5, M7):
//  (a, b) SIMPATH vs LDAG running time under the LT-parallel-edges model —
//         M5: LDAG is faster even on the model SIMPATH was published on;
//  (c-e)  TIM+/IMM extrapolated spread vs MC-evaluated spread as ε grows —
//         M4: the extrapolated number inflates with ε while the real
//         spread (gently) degrades;
//  (f)    IMRank with the original (defective) stopping criterion vs the
//         corrected fixed-round loop — M7;
//  Table 4: LDAG vs SIMPATH wall time at the largest k, LT-uniform and
//         LT-parallel-edges.

#include <memory>

#include "algorithms/imrank.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "framework/datasets.h"
#include "framework/registry.h"
#include "graph/weights.h"

using namespace imbench;
using namespace imbench::benchutil;

namespace {

// Builds a phone-call-style multigraph from a profile: each base arc is
// replicated a geometric number of times (callers dial repeat contacts),
// then consolidated with multiplicities so the LT-parallel-edges weight
// model (Sec. 2.1.2) applies.
Graph MakeParallelEdgeGraph(const std::string& dataset, DatasetScale scale,
                            uint64_t seed) {
  Graph base = MakeDataset(dataset, scale, seed);
  std::vector<Arc> arcs;
  Rng rng(seed ^ 0xca11);
  for (NodeId u = 0; u < base.num_nodes(); ++u) {
    for (const NodeId v : base.OutTargets(u)) {
      uint32_t copies = 1;
      while (copies < 8 && rng.Bernoulli(0.4)) ++copies;  // geometric-ish
      for (uint32_t c = 0; c < copies; ++c) arcs.push_back(Arc{u, v});
    }
  }
  Graph graph = Graph::FromArcs(base.num_nodes(), std::move(arcs));
  AssignLtParallelEdges(graph);
  return graph;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Fig. 10 / Table 4: myths M4, M5, M7");
  const CommonFlags common = AddCommonFlags(flags, /*default_mc=*/500);
  std::string* dataset = flags.AddString("dataset", "nethept", "profile");
  std::string* ks_flag = flags.AddString("k", "10,25,50", "seed counts");
  std::string* eps_flag = flags.AddString(
      "eps", "0.1,0.3,0.5,0.7,0.9", "epsilon values for Fig. 10c-e");
  flags.Parse(argc, argv);
  if (*common.full) *ks_flag = "40,80,120,160,200";

  Workbench bench(ToWorkbenchOptions(common));
  const auto ks = ParseKList(*ks_flag);
  const uint32_t kmax = ks.back();
  const uint64_t seed = bench.options().seed;

  // ---- (a, b) + Table 4: SIMPATH vs LDAG under both LT variants. ----
  Banner("Fig. 10a-b: SIMPATH vs LDAG running time, LT-parallel-edges");
  Graph parallel_graph =
      MakeParallelEdgeGraph(*dataset, bench.options().scale, seed);
  {
    TextTable table({"k", "LDAG time (s)", "SIMPATH time (s)"});
    CellResult ldag_at_kmax, simpath_at_kmax;
    for (const uint32_t k : ks) {
      const CellResult ldag =
          MeasureCell(*MakeAlgorithm("LDAG"), parallel_graph,
                      DiffusionKind::kLinearThreshold, k, bench.options());
      const CellResult simpath =
          MeasureCell(*MakeAlgorithm("SIMPATH"), parallel_graph,
                      DiffusionKind::kLinearThreshold, k, bench.options());
      table.AddRow({TextTable::Int(k), TimeCell(ldag), TimeCell(simpath)});
      if (k == kmax) {
        ldag_at_kmax = ldag;
        simpath_at_kmax = simpath;
      }
    }
    EmitTable(table, *common.csv);

    Banner("Table 4: LDAG vs SIMPATH at the largest k");
    const CellResult ldag_uniform =
        bench.RunCell("LDAG", *dataset, WeightModel::kLtUniform, kmax);
    const CellResult simpath_uniform =
        bench.RunCell("SIMPATH", *dataset, WeightModel::kLtUniform, kmax);
    TextTable table4({"Algorithm", *dataset + " (LT-uniform)",
                      *dataset + "-P (LT-parallel)"});
    table4.AddRow(
        {"LDAG", TimeCell(ldag_uniform), TimeCell(ldag_at_kmax)});
    table4.AddRow(
        {"SIMPATH", TimeCell(simpath_uniform), TimeCell(simpath_at_kmax)});
    EmitTable(table4, *common.csv);
  }

  // ---- (c-e): extrapolated vs MC spread against ε. ----
  struct Panel {
    const char* name;
    WeightModel model;
  };
  const Panel panels[] = {{"nethept (IC)", WeightModel::kIcConstant},
                          {"nethept (WC)", WeightModel::kWc},
                          {"hepph (LT)", WeightModel::kLtUniform}};
  const char* panel_datasets[] = {"nethept", "nethept", "hepph"};
  std::vector<double> eps_values;
  for (const std::string& e : SplitCsv(*eps_flag)) {
    eps_values.push_back(std::stod(e));
  }
  for (size_t p = 0; p < 3; ++p) {
    char title[96];
    std::snprintf(title, sizeof(title),
                  "Fig. 10c-e: extrapolated vs MC spread, %s",
                  panels[p].name);
    Banner(title);
    TextTable table({"eps", "TIM+ (extrapolated)", "TIM+ (sigma)",
                     "IMM (extrapolated)", "IMM (sigma)"});
    for (const double eps : eps_values) {
      const CellResult tim = bench.RunCell("TIM+", panel_datasets[p],
                                           panels[p].model, kmax, eps);
      const CellResult imm = bench.RunCell("IMM", panel_datasets[p],
                                           panels[p].model, kmax, eps);
      table.AddRow({TextTable::Num(eps, 2),
                    TextTable::Num(tim.internal_estimate, 1),
                    SpreadCell(tim), TextTable::Num(imm.internal_estimate, 1),
                    SpreadCell(imm)});
    }
    EmitTable(table, *common.csv);
  }
  std::printf(
      "Expected shape (paper): the extrapolated columns sit above the sigma\n"
      "columns and *rise* with eps; the sigma columns do not (M4).\n\n");

  // ---- (f): IMRank stopping criteria. ----
  Banner("Fig. 10f: IMRank original (defective) vs corrected stopping, WC");
  {
    TextTable table({"k", "Incorrect (early-exit) spread", "rounds used",
                     "Corrected (10 rounds) spread"});
    for (const uint32_t k : ks) {
      ImRankOptions defective;
      defective.stopping = ImRankOptions::Stopping::kTopKSetUnchanged;
      ImRank imrank_defective(defective);
      const CellResult bad =
          bench.RunCell(imrank_defective, *dataset, WeightModel::kWc, k);

      ImRankOptions corrected;
      corrected.stopping = ImRankOptions::Stopping::kFixedRounds;
      ImRank imrank_corrected(corrected);
      const CellResult good =
          bench.RunCell(imrank_corrected, *dataset, WeightModel::kWc, k);
      table.AddRow({TextTable::Int(k), SpreadCell(bad),
                    TextTable::Int(static_cast<int64_t>(
                        bad.counters[static_cast<int>(
                            TraceCounter::kScoringRounds)])),
                    SpreadCell(good)});
    }
    EmitTable(table, *common.csv);
  }
  std::printf(
      "Expected shape (paper): the defective criterion exits after a round\n"
      "or two and its spread falls behind at larger k (M7).\n");
  return 0;
}
