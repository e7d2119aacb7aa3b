// Fig. 8: growth of the main-memory footprint (peak working heap during
// seed selection, MB) against the number of seeds, for every benchmarked
// technique across datasets and diffusion models.
//
// The second table reports the graph substrate itself: the in-memory CSR's
// resident bytes against the `.imgrf` compact backend's resident/mapped
// split (GraphView::Memory()). Peak-heap numbers above and resident bytes
// here are deliberately separate lanes — a mapped graph file is not heap,
// and quoting it as such would overstate the compact backend's footprint.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/grid.h"
#include "graph/compact_graph.h"
#include "graph/graph_file.h"
#include "graph/graph_view.h"

using namespace imbench;
using namespace imbench::benchutil;

namespace {

// Writes the weighted graph to a scratch `.imgrf`, opens it, and reports
// both backends' resident-vs-mapped accounting side by side.
void PrintSubstrateTable(Workbench& bench,
                         const std::vector<std::string>& datasets,
                         const std::vector<WeightModel>& models, bool csv) {
  Banner("Graph substrate: resident vs mapped bytes per backend");
  TextTable table({"dataset", "model", "csr resident", "imgrf resident",
                   "imgrf mapped", "ratio"});
  for (const std::string& dataset : datasets) {
    for (const WeightModel model : models) {
      const Graph& graph = bench.GetGraph(dataset, model);
      const GraphView mem_view(graph);
      const GraphView::MemoryFootprint mem = mem_view.Memory();

      std::string path = "/tmp/fig8_substrate_" + dataset + "_" +
                         std::to_string(static_cast<int>(model)) + ".imgrf";
      std::string error;
      if (!WriteGraphFile(graph, model, path, &error)) {
        table.AddRow({dataset, WeightModelName(model),
                      TextTable::MegaBytes(mem.resident_bytes),
                      "write failed", error, ""});
        continue;
      }
      CompactGraph compact;
      if (CompactGraph::Open(path, &compact, &error) != SealedStatus::kOk) {
        table.AddRow({dataset, WeightModelName(model),
                      TextTable::MegaBytes(mem.resident_bytes),
                      "open failed", error, ""});
        std::remove(path.c_str());
        continue;
      }
      const GraphView::MemoryFootprint disk = GraphView(compact).Memory();
      const double ratio =
          disk.mapped_bytes > 0
              ? static_cast<double>(mem.resident_bytes) / disk.mapped_bytes
              : 0.0;
      table.AddRow({dataset, WeightModelName(model),
                    TextTable::MegaBytes(mem.resident_bytes),
                    TextTable::MegaBytes(disk.resident_bytes),
                    TextTable::MegaBytes(disk.mapped_bytes),
                    TextTable::Num(ratio, 2) + "x"});
      std::remove(path.c_str());
    }
  }
  EmitTable(table, csv);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Fig. 8: memory footprint vs #seeds for all techniques");
  const CommonFlags common = AddCommonFlags(flags);
  const GridFlags grid = AddGridFlags(flags);
  flags.Parse(argc, argv);
  ApplyFullGridDefaults(common, grid);

  Workbench bench(ToWorkbenchOptions(common));
  const auto datasets = SplitCsv(*grid.datasets);
  const auto models = ParseModels(*grid.models);
  const auto ks = ParseKList(*grid.ks);

  Banner("Fig. 8: Peak working memory (MB) against the number of seeds");
  const auto cells = RunGrid(bench, datasets, models, ks, *common.full);
  PrintGrid(cells, datasets, models, ks, *common.csv,
            [](const CellResult& r) { return MemoryCell(r); });

  PrintSubstrateTable(bench, datasets, models, *common.csv);
  return 0;
}
