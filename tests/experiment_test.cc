#include "framework/experiment.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/imrank.h"
#include "framework/im_framework.h"
#include "framework/registry.h"
#include "framework/run_guard.h"

namespace imbench {
namespace {

WorkbenchOptions TinyOptions() {
  WorkbenchOptions options;
  options.scale = DatasetScale::kTiny;
  options.evaluation_simulations = 200;
  options.time_budget_seconds = 60;
  return options;
}

// Stub technique whose per-seed work never finishes on its own: only the
// run guard can interrupt it. Each pick appends one seed before blocking,
// so a tripped run always carries at least one best-effort seed.
class SlowPollAlgorithm : public ImAlgorithm {
 public:
  std::string name() const override { return "SlowPoll"; }
  bool Supports(DiffusionKind) const override { return true; }

  SelectionResult Select(const SelectionInput& input) override {
    SelectionResult result;
    for (NodeId v = 0; v < input.k; ++v) {
      result.seeds.push_back(v);
      while (!GuardShouldStop(input.guard)) {
      }
      result.stop_reason = GuardReason(input.guard);
      break;
    }
    return result;
  }
};

TEST(WorkbenchTest, GraphCachingReturnsSameInstance) {
  Workbench bench(TinyOptions());
  const Graph& a = bench.GetGraph("nethept", WeightModel::kWc);
  const Graph& b = bench.GetGraph("nethept", WeightModel::kWc);
  EXPECT_EQ(&a, &b);
  const Graph& c = bench.GetGraph("nethept", WeightModel::kLtUniform);
  EXPECT_NE(&a, &c);
}

TEST(WorkbenchTest, IcProbabilityDistinguishesCacheEntries) {
  Workbench bench(TinyOptions());
  const Graph& p01 = bench.GetGraph("nethept", WeightModel::kIcConstant, 0.1);
  const Graph& p001 =
      bench.GetGraph("nethept", WeightModel::kIcConstant, 0.01);
  EXPECT_NE(&p01, &p001);
  EXPECT_DOUBLE_EQ(p01.weights()[0], 0.1);
  EXPECT_DOUBLE_EQ(p001.weights()[0], 0.01);
}

TEST(WorkbenchTest, RunCellProducesMeasurements) {
  Workbench bench(TinyOptions());
  const CellResult result =
      bench.RunCell("IRIE", "nethept", WeightModel::kWc, 5);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.seeds.size(), 5u);
  EXPECT_GT(result.spread.mean, 0.0);
  EXPECT_GE(result.select_seconds, 0.0);
  EXPECT_GT(result.peak_heap_bytes, 0u);
}

TEST(WorkbenchTest, UnsupportedModelReportsNa) {
  Workbench bench(TinyOptions());
  const CellResult result =
      bench.RunCell("LDAG", "nethept", WeightModel::kWc, 5);
  EXPECT_EQ(result.status, CellResult::Status::kUnsupported);
  EXPECT_TRUE(result.seeds.empty());
}

TEST(WorkbenchTest, TimeBudgetMarksDnf) {
  WorkbenchOptions options = TinyOptions();
  options.time_budget_seconds = 1e-9;  // everything overruns
  Workbench bench(options);
  const CellResult result =
      bench.RunCell("IRIE", "nethept", WeightModel::kWc, 3);
  EXPECT_EQ(result.status, CellResult::Status::kDnf);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  // The guard stops selection cooperatively, so whatever seeds were picked
  // before the trip are reported — possibly none at so small a budget.
  EXPECT_LE(result.seeds.size(), 3u);
}

TEST(WorkbenchTest, ZeroTimeBudgetMeansUnlimited) {
  // --budget=0 is "no deadline" in every driver, as in im_run.
  WorkbenchOptions options = TinyOptions();
  options.time_budget_seconds = 0.0;
  Workbench bench(options);
  const CellResult result =
      bench.RunCell("CELF", "nethept", WeightModel::kWc, 3);
  EXPECT_EQ(result.status, CellResult::Status::kOk);
  EXPECT_EQ(result.stop_reason, StopReason::kNone);
  EXPECT_EQ(result.seeds.size(), 3u);
}

TEST(WorkbenchTest, SlowAlgorithmReturnsPartialSeedsOnDeadline) {
  WorkbenchOptions options = TinyOptions();
  options.time_budget_seconds = 0.05;
  Workbench bench(options);
  SlowPollAlgorithm slow;
  const CellResult result =
      bench.RunCell(slow, "nethept", WeightModel::kWc, 5);
  EXPECT_EQ(result.status, CellResult::Status::kDnf);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_GE(result.seeds.size(), 1u);  // best-effort partial seeds
  EXPECT_LT(result.seeds.size(), 5u);
  // Cooperative cancellation means the run costs roughly the budget, not
  // "however long selection takes"; allow generous slack for slow CI.
  EXPECT_LT(result.select_seconds, 2.0);
}

TEST(WorkbenchTest, MemoryBudgetMarksOverBudget) {
  WorkbenchOptions options = TinyOptions();
  options.memory_budget_bytes = 32 * 1024;  // tiny heap allowance
  Workbench bench(options);
  const CellResult result =
      bench.RunCell("IMM", "nethept", WeightModel::kWc, 10);
  EXPECT_EQ(result.status, CellResult::Status::kOverBudget);
  EXPECT_EQ(result.stop_reason, StopReason::kMemory);
}

TEST(WorkbenchTest, CancelFlagMarksCellCancelled) {
  std::atomic<bool> cancel{true};
  WorkbenchOptions options = TinyOptions();
  options.cancel = &cancel;
  Workbench bench(options);
  EXPECT_TRUE(bench.cancelled());
  const CellResult result =
      bench.RunCell("IRIE", "nethept", WeightModel::kWc, 3);
  EXPECT_EQ(result.status, CellResult::Status::kCancelled);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

TEST(WorkbenchTest, CellKeyEncodesAllInputs) {
  Workbench bench(TinyOptions());
  const std::string base =
      bench.CellKey("IMM", "nethept", WeightModel::kWc, 5, 0.1);
  EXPECT_NE(base, bench.CellKey("IMM", "nethept", WeightModel::kWc, 6, 0.1));
  EXPECT_NE(base, bench.CellKey("IMM", "nethept", WeightModel::kWc, 5, 0.2));
  EXPECT_NE(base, bench.CellKey("TIM+", "nethept", WeightModel::kWc, 5, 0.1));
  EXPECT_NE(base,
            bench.CellKey("IMM", "nethept", WeightModel::kLtUniform, 5, 0.1));
  WorkbenchOptions budget = TinyOptions();
  budget.time_budget_seconds = 0;
  EXPECT_NE(base, Workbench(budget).CellKey("IMM", "nethept",
                                            WeightModel::kWc, 5, 0.1));
  WorkbenchOptions memory = TinyOptions();
  memory.memory_budget_bytes = 1 << 20;
  EXPECT_NE(base, Workbench(memory).CellKey("IMM", "nethept",
                                            WeightModel::kWc, 5, 0.1));
}

TEST(WorkbenchTest, JournaledDnfCellRerunsUnderALargerBudget) {
  // A cell that ran out of a 0.5 ms budget is journaled as DNF; the same
  // grid rerun with --budget=0 (unlimited) must run it again and finish.
  const std::string path =
      std::string(::testing::TempDir()) + "/workbench_budget_journal.tsv";
  std::remove(path.c_str());
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    options.time_budget_seconds = 0.0005;
    Workbench bench(options);
    ASSERT_EQ(bench.RunCell("CELF", "nethept", WeightModel::kWc, 3).status,
              CellResult::Status::kDnf);
  }
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    options.time_budget_seconds = 0;
    Workbench bench(options);
    const CellResult rerun =
        bench.RunCell("CELF", "nethept", WeightModel::kWc, 3);
    EXPECT_EQ(rerun.status, CellResult::Status::kOk);
    EXPECT_EQ(rerun.seeds.size(), 3u);
  }
  std::remove(path.c_str());
}

TEST(WorkbenchTest, JournalReplaySkipsFinishedCells) {
  const std::string path =
      std::string(::testing::TempDir()) + "/workbench_journal.tsv";
  std::remove(path.c_str());
  CellResult first;
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    Workbench bench(options);
    first = bench.RunCell("IRIE", "nethept", WeightModel::kWc, 5);
    EXPECT_TRUE(first.ok());
  }
  // A fresh Workbench (fresh process in real runs) replays the journaled
  // cell verbatim instead of re-running it: timings match bit-for-bit,
  // which a re-run could never produce.
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    Workbench bench(options);
    const CellResult replayed =
        bench.RunCell("IRIE", "nethept", WeightModel::kWc, 5);
    EXPECT_EQ(replayed.status, first.status);
    EXPECT_EQ(replayed.seeds, first.seeds);
    EXPECT_DOUBLE_EQ(replayed.spread.mean, first.spread.mean);
    EXPECT_DOUBLE_EQ(replayed.spread.stddev, first.spread.stddev);
    EXPECT_DOUBLE_EQ(replayed.select_seconds, first.select_seconds);
    EXPECT_EQ(replayed.peak_heap_bytes, first.peak_heap_bytes);
    // The counters are journaled too, so a resumed grid reprints them.
    EXPECT_GT(first.counters[static_cast<int>(TraceCounter::kNodeLookups)],
              0u);
    EXPECT_EQ(replayed.counters, first.counters);
  }
  std::remove(path.c_str());
}

// Reads the journal's lines.
std::vector<std::string> JournalLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(WorkbenchTest, JournaledFaultCellReplays) {
  // A cell whose selection ended on an unretried injected fault is
  // journaled as DNF with reason "fault". Every name StopReasonName writes
  // must parse back, or the cell is recomputed (and re-appended) on every
  // resume.
  const std::string path =
      std::string(::testing::TempDir()) + "/workbench_fault_journal.tsv";
  std::remove(path.c_str());
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    Workbench bench(options);
    EXPECT_TRUE(bench.RunCell("IRIE", "nethept", WeightModel::kWc, 5).ok());
  }
  // A comment header, then the cell.
  std::vector<std::string> lines = JournalLines(path);
  ASSERT_EQ(lines.size(), 2u);
  const std::string ok_fields = "\tOK\tnone\t";
  const size_t at = lines[1].find(ok_fields);
  ASSERT_NE(at, std::string::npos) << lines[1];
  lines[1].replace(at, ok_fields.size(), "\tDNF\tfault\t");
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    Workbench bench(options);
    const CellResult replayed =
        bench.RunCell("IRIE", "nethept", WeightModel::kWc, 5);
    EXPECT_EQ(replayed.status, CellResult::Status::kDnf);
    EXPECT_EQ(replayed.stop_reason, StopReason::kFault);
  }
  EXPECT_EQ(JournalLines(path), lines);  // replayed, not re-appended
  std::remove(path.c_str());
}

TEST(WorkbenchTest, CancelledCellsAreNotJournaled) {
  const std::string path =
      std::string(::testing::TempDir()) + "/workbench_cancel_journal.tsv";
  std::remove(path.c_str());
  std::atomic<bool> cancel{true};
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    options.cancel = &cancel;
    Workbench bench(options);
    const CellResult result =
        bench.RunCell("IRIE", "nethept", WeightModel::kWc, 3);
    EXPECT_EQ(result.status, CellResult::Status::kCancelled);
  }
  // The resumed run must redo the cancelled cell from scratch.
  {
    WorkbenchOptions options = TinyOptions();
    options.journal_path = path;
    Workbench bench(options);
    const CellResult rerun =
        bench.RunCell("IRIE", "nethept", WeightModel::kWc, 3);
    EXPECT_TRUE(rerun.ok());
    EXPECT_EQ(rerun.seeds.size(), 3u);
  }
  std::remove(path.c_str());
}

TEST(WorkbenchTest, ExplicitInstanceOverload) {
  Workbench bench(TinyOptions());
  ImRankOptions options;
  options.stopping = ImRankOptions::Stopping::kTopKSetUnchanged;
  ImRank imrank(options);
  const CellResult result =
      bench.RunCell(imrank, "nethept", WeightModel::kWc, 5);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.counters[static_cast<int>(TraceCounter::kScoringRounds)],
            0u);
}

TEST(WorkbenchTest, CountersPopulated) {
  Workbench bench(TinyOptions());
  const CellResult result =
      bench.RunCell("IMM", "nethept", WeightModel::kWc, 5);
  EXPECT_GT(result.counters[static_cast<int>(TraceCounter::kRrSets)], 0u);
  // Selection only: the evaluation pass's simulations are not counted.
  EXPECT_EQ(result.counters[static_cast<int>(TraceCounter::kSimulations)],
            0u);

  // A harness-wide trace yields the same per-cell counters.
  const std::string path =
      std::string(::testing::TempDir()) + "/workbench_counters_trace.json";
  {
    WorkbenchOptions options = TinyOptions();
    options.trace_out_path = path;
    Workbench traced(options);
    traced.RunCell("IMM", "nethept", WeightModel::kWc, 5);
    const CellResult again =
        traced.RunCell("IMM", "nethept", WeightModel::kWc, 5);
    EXPECT_EQ(again.counters, result.counters);
  }
  std::remove(path.c_str());
}

// The three drivers of a cell measure it one way: a workbench cell, a
// parameter-free Alg. 3 trial and a direct MeasureCell on the same graph,
// seed and controls select the same seeds with the same work and score
// them with the same MC pass.
TEST(MeasureCellTest, WorkbenchFrameworkAndDirectCallAgree) {
  Workbench bench(TinyOptions());
  const CellResult cell =
      bench.RunCell("IRIE", "nethept", WeightModel::kWc, 5);
  ASSERT_TRUE(cell.ok());

  const Graph& graph = bench.GetGraph("nethept", WeightModel::kWc);
  const DiffusionKind kind = DiffusionKind::kIndependentCascade;
  const AlgorithmSpec* spec = FindAlgorithm("IRIE");
  ASSERT_NE(spec, nullptr);
  ASSERT_FALSE(spec->HasParameter());
  const FrameworkResult framework =
      RunImFramework(*spec, graph, kind, 5, bench.options());
  ASSERT_EQ(framework.trials.size(), 1u);
  const CellResult& trial = framework.chosen.cell;

  std::unique_ptr<ImAlgorithm> irie = spec->make(kDefaultParameter);
  const CellResult direct =
      MeasureCell(*irie, graph, kind, 5, bench.options());

  for (const CellResult* other : {&trial, &direct}) {
    EXPECT_EQ(other->status, cell.status);
    EXPECT_EQ(other->seeds, cell.seeds);
    EXPECT_EQ(other->counters, cell.counters);
    EXPECT_EQ(other->spread.mean, cell.spread.mean);
    EXPECT_EQ(other->spread.stddev, cell.spread.stddev);
    EXPECT_EQ(other->spread.simulations, cell.spread.simulations);
  }
  // The one evaluation pass: EvaluationSeed of the run seed.
  SpreadOptions eval;
  eval.simulations = bench.options().evaluation_simulations;
  eval.seed = EvaluationSeed(bench.options().seed);
  const SpreadEstimate expected =
      EstimateSpread(graph, kind, cell.seeds, eval);
  EXPECT_EQ(cell.spread.mean, expected.mean);
  EXPECT_EQ(cell.spread.stddev, expected.stddev);
  EXPECT_EQ(cell.spread.simulations, expected.simulations);
}

TEST(WorkbenchTest, StatusNames) {
  EXPECT_STREQ(CellStatusName(CellResult::Status::kOk), "OK");
  EXPECT_STREQ(CellStatusName(CellResult::Status::kDnf), "DNF");
  EXPECT_STREQ(CellStatusName(CellResult::Status::kOverBudget), "Crashed");
  EXPECT_STREQ(CellStatusName(CellResult::Status::kUnsupported), "NA");
  EXPECT_STREQ(CellStatusName(CellResult::Status::kCancelled), "Cancelled");
}

}  // namespace
}  // namespace imbench
