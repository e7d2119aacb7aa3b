#include "framework/im_framework.h"

#include <cmath>

#include "common/check.h"
#include "common/timer.h"
#include "framework/trace.h"

namespace imbench {

FrameworkResult RunImFramework(const Graph& graph, const AlgorithmSpec& spec,
                               DiffusionKind kind,
                               const FrameworkOptions& options) {
  IMBENCH_CHECK_MSG(spec.Supports(kind), "%s does not support %s",
                    spec.name.c_str(), DiffusionKindName(kind));
  FrameworkResult result;

  auto run_trial = [&](double parameter) {
    ParameterTrial trial;
    trial.parameter = parameter;
    std::unique_ptr<ImAlgorithm> algorithm = spec.make(parameter);
    Span trial_span(options.trace, "trial");
    SelectionInput input;
    input.graph = &graph;
    input.diffusion = kind;
    input.k = options.k;
    input.seed = options.seed;
    input.threads = options.threads;
    input.guard = options.guard;
    input.trace = options.trace;
    input.pool = options.pool;
    Timer timer;
    SelectionResult selection = algorithm->Select(input);
    trial.select_seconds = timer.Seconds();
    trial.seeds = std::move(selection.seeds);
    // Spread computation phase: identical MC evaluation for everyone.
    SpreadOptions eval;
    static_cast<CommonRunOptions&>(eval) = options;
    eval.simulations = options.evaluation_simulations;
    eval.seed = options.seed ^ 0x5f12ead0c0ffeeULL;
    Span evaluate_span(options.trace, "evaluate");
    trial.spread = EstimateSpread(graph, kind, trial.seeds, eval);
    return trial;
  };

  if (!spec.HasParameter()) {
    result.chosen = run_trial(kDefaultParameter);
    result.trials.push_back(result.chosen);
    return result;
  }

  IMBENCH_CHECK(!spec.parameter_spectrum.empty());
  // α_1: the most accurate setting anchors μ* and sd*.
  ParameterTrial best = run_trial(spec.parameter_spectrum.front());
  const double mu_star = best.spread.mean;
  const double sd_star = best.spread.stddev;
  result.trials.push_back(best);
  result.chosen = best;
  for (size_t i = 1; i < spec.parameter_spectrum.size(); ++i) {
    ParameterTrial trial = run_trial(spec.parameter_spectrum[i]);
    result.trials.push_back(trial);
    const bool converged =
        trial.spread.mean >= mu_star - options.tolerance_stddevs * sd_star;
    if (!converged) break;       // return S_{α_{i-1}} (Alg. 3 line 11)
    result.chosen = std::move(trial);
  }
  return result;
}

}  // namespace imbench
