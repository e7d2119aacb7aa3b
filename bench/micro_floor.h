// Floor rows: the micro rows whose ratios CI gates (the `micro-floors`
// job runs `--benchmark_filter=Floor --benchmark_format=json` and checks
// each pair of rows). A floor row times its whole measurement once per
// repetition with the row's own Timer (setup outside it stays untimed),
// and the gate reads the minimum over repetitions.
#ifndef IMBENCH_BENCH_MICRO_FLOOR_H_
#define IMBENCH_BENCH_MICRO_FLOOR_H_

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

namespace imbench {

inline void FloorRow(benchmark::internal::Benchmark* b) {
  b->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->ComputeStatistics("min",
                          [](const std::vector<double>& v) {
                            return *std::min_element(v.begin(), v.end());
                          })
      ->ReportAggregatesOnly(true);
}

}  // namespace imbench

#endif  // IMBENCH_BENCH_MICRO_FLOOR_H_
