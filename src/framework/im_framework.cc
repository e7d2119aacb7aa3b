#include "framework/im_framework.h"

#include "common/check.h"
#include "framework/trace.h"

namespace imbench {

FrameworkResult RunImFramework(const AlgorithmSpec& spec,
                               const GraphView& graph, DiffusionKind kind,
                               uint32_t k, const CellOptions& options) {
  // Convergence slack: one standard deviation of the anchor (Sec. 5.1.1).
  constexpr double kToleranceStddevs = 1.0;
  const std::vector<double> spectrum =
      spec.HasParameter() ? spec.parameter_spectrum
                          : std::vector<double>{kDefaultParameter};
  IMBENCH_CHECK(!spectrum.empty());

  auto run_trial = [&](double parameter) {
    std::unique_ptr<ImAlgorithm> algorithm = spec.make(parameter);
    Span trial_span(options.trace, "trial");
    return ParameterTrial{parameter,
                          MeasureCell(*algorithm, graph, kind, k, options)};
  };

  FrameworkResult result;
  // α_1: the most accurate setting anchors μ* and sd*.
  result.chosen = run_trial(spectrum.front());
  result.trials.push_back(result.chosen);
  if (!result.chosen.cell.ok()) return result;
  const double floor = result.chosen.cell.spread.mean -
                       kToleranceStddevs * result.chosen.cell.spread.stddev;
  for (size_t i = 1; i < spectrum.size(); ++i) {
    ParameterTrial trial = run_trial(spectrum[i]);
    result.trials.push_back(trial);
    // A quality drop or an unfinished trial returns S_{α_{i-1}} (Alg. 3
    // line 11).
    if (!trial.cell.ok() || trial.cell.spread.mean < floor) break;
    result.chosen = std::move(trial);
  }
  return result;
}

}  // namespace imbench
