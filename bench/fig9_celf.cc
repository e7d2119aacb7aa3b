// Fig. 9 + Fig. 13 + Appendix C (myths M1 and M2):
//  (a, b) running time of CELF vs CELF++ over independent runs — M1: the
//         claimed 35% speedup does not materialize;
//  (c-e)  CELF's spread at 1K / 10K / 20K MC simulations vs IMM — M2: at
//         large k, CELF needs far more simulations to stay the "gold
//         standard";
//  (C)    average node-lookups per iteration, the machine-independent view
//         of the same comparison (CELF++ does fewer lookups but more work
//         per lookup).

#include "bench/bench_util.h"

using namespace imbench;
using namespace imbench::benchutil;

int main(int argc, char** argv) {
  FlagSet flags("Fig. 9 / Fig. 13: CELF vs CELF++ and CELF vs IMM");
  const CommonFlags common = AddCommonFlags(flags, /*default_mc=*/500);
  std::string* dataset = flags.AddString("dataset", "nethept", "profile");
  int64_t* runs = flags.AddInt("runs", 3, "independent runs (paper: 12)");
  int64_t* k_runs = flags.AddInt("k-runs", 15,
                                 "seed count for the repeated runs (paper: 50)");
  std::string* sims_flag = flags.AddString(
      "sims", "50,200,500", "CELF MC counts for Fig. 9c-e "
                            "(paper: 1000,10000,20000)");
  std::string* ks_flag =
      flags.AddString("k", "10,25", "seed counts for Fig. 9c-e");
  flags.Parse(argc, argv);
  if (*common.full) {
    *runs = 12;
    *k_runs = 50;
    *sims_flag = "1000,10000,20000";
    *ks_flag = "40,80,120,160,200";
  }

  const int64_t run_sims = *common.full ? 10000 : 200;

  // (a, b): independent runs under WC and LT.
  for (const WeightModel model :
       {WeightModel::kWc, WeightModel::kLtUniform}) {
    // A fresh Workbench per run re-seeds graph generation identically but
    // gives the algorithms fresh RNG streams via the run index.
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Fig. 9a-b: %lld independent runs, k=%lld, %s, r=%lld",
                  static_cast<long long>(*runs),
                  static_cast<long long>(*k_runs),
                  WeightModelName(model).c_str(),
                  static_cast<long long>(run_sims));
    Banner(title);
    TextTable table({"run", "CELF time (s)", "CELF++ time (s)",
                     "CELF lookups/iter", "CELF++ lookups/iter"});
    double celf_total = 0, celfpp_total = 0;
    for (int64_t run = 0; run < *runs; ++run) {
      WorkbenchOptions options = ToWorkbenchOptions(common);
      options.seed = options.seed + 1000 * (run + 1);
      Workbench bench(options);
      const CellResult celf =
          bench.RunCell("CELF", *dataset, model, static_cast<uint32_t>(*k_runs),
                        static_cast<double>(run_sims));
      const CellResult celfpp =
          bench.RunCell("CELF++", *dataset, model,
                        static_cast<uint32_t>(*k_runs),
                        static_cast<double>(run_sims));
      celf_total += celf.select_seconds;
      celfpp_total += celfpp.select_seconds;
      const auto lookups_per_iter = [&](const CellResult& cell) {
        return TextTable::Num(
            cell.counters[static_cast<int>(TraceCounter::kNodeLookups)] /
                static_cast<double>(*k_runs),
            1);
      };
      table.AddRow(
          {TextTable::Int(run + 1), TextTable::Secs(celf.select_seconds),
           TextTable::Secs(celfpp.select_seconds), lookups_per_iter(celf),
           lookups_per_iter(celfpp)});
    }
    EmitTable(table, *common.csv);
    std::printf("mean: CELF %.2fs vs CELF++ %.2fs (M1: no 35%% speedup)\n\n",
                celf_total / *runs, celfpp_total / *runs);
  }

  // (c-e): CELF at several simulation budgets vs IMM.
  Workbench bench(ToWorkbenchOptions(common));
  const auto sims = ParseKList(*sims_flag);
  const auto ks = ParseKList(*ks_flag);
  for (const WeightModel model :
       {WeightModel::kIcConstant, WeightModel::kWc,
        WeightModel::kLtUniform}) {
    char title[96];
    std::snprintf(title, sizeof(title),
                  "Fig. 9c-e: CELF at varying #MC vs IMM (%s)",
                  WeightModelName(model).c_str());
    Banner(title);
    std::vector<std::string> header = {"k", "IMM"};
    for (const uint32_t r : sims) {
      header.push_back("CELF," + std::to_string(r));
    }
    TextTable table(std::move(header));
    for (const uint32_t k : ks) {
      std::vector<std::string> row = {TextTable::Int(k)};
      const CellResult imm = bench.RunCell(
          "IMM", *dataset, model, k,
          model == WeightModel::kIcConstant ? 0.5 : kDefaultParameter);
      row.push_back(SpreadCell(imm));
      for (const uint32_t r : sims) {
        const CellResult celf = bench.RunCell("CELF", *dataset, model, k,
                                              static_cast<double>(r));
        row.push_back(SpreadCell(celf));
      }
      table.AddRow(std::move(row));
    }
    EmitTable(table, *common.csv);
  }
  std::printf(
      "Expected shape (paper): at small k every CELF budget matches IMM;\n"
      "at the largest k only the biggest simulation budget keeps up (M2).\n");
  return 0;
}
