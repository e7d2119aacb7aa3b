#include "framework/registry.h"

#include <cmath>

#include "algorithms/celf.h"
#include "algorithms/celfpp.h"
#include "algorithms/easyim.h"
#include "algorithms/greedy.h"
#include "algorithms/heuristics.h"
#include "algorithms/imm.h"
#include "algorithms/imrank.h"
#include "algorithms/irie.h"
#include "algorithms/ldag.h"
#include "algorithms/pmc.h"
#include "algorithms/ris.h"
#include "algorithms/simpath.h"
#include "algorithms/static_greedy.h"
#include "algorithms/tim_plus.h"
#include "common/check.h"

namespace imbench {
namespace {

bool IsDefault(double parameter) { return std::isnan(parameter); }

uint32_t AsCount(double parameter, uint32_t fallback) {
  return IsDefault(parameter) ? fallback
                              : static_cast<uint32_t>(parameter + 0.5);
}

std::vector<AlgorithmSpec> BuildRegistry() {
  std::vector<AlgorithmSpec> specs;

  // --- The eleven techniques of the study (Fig. 3). ---
  {
    AlgorithmSpec s;
    s.name = "CELF";
    s.supports_ic = s.supports_lt = true;
    s.parameter_name = "#MC Simulations";
    s.parameter_spectrum = {20000, 10000, 7500, 5000, 2000, 1000, 500, 100};
    s.optimal_ic = 10000;
    s.optimal_wc = 10000;
    s.optimal_lt = 10000;
    s.make = [](double p) {
      return std::make_unique<Celf>(CelfOptions{AsCount(p, 10000)});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "CELF++";
    s.supports_ic = s.supports_lt = true;
    s.parameter_name = "#MC Simulations";
    s.parameter_spectrum = {20000, 10000, 7500, 5000, 2000, 1000, 500, 100};
    s.optimal_ic = 7500;
    s.optimal_wc = 7500;
    s.optimal_lt = 10000;
    s.make = [](double p) {
      return std::make_unique<CelfPlusPlus>(
          CelfPlusPlusOptions{AsCount(p, 10000)});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "TIM+";
    s.supports_ic = s.supports_lt = true;
    s.parameter_name = "epsilon";
    s.parameter_spectrum = {0.05, 0.1, 0.15, 0.2, 0.3, 0.35, 0.5, 0.7, 0.9};
    s.optimal_ic = 0.05;
    s.optimal_wc = 0.15;
    s.optimal_lt = 0.35;
    s.make = [](double p) {
      TimPlusOptions options;
      if (!IsDefault(p)) options.epsilon = p;
      return std::make_unique<TimPlus>(options);
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "IMM";
    s.supports_ic = s.supports_lt = true;
    s.parameter_name = "epsilon";
    s.parameter_spectrum = {0.05, 0.1, 0.15, 0.2, 0.3, 0.35, 0.5, 0.7, 0.9};
    s.optimal_ic = 0.05;
    s.optimal_wc = 0.1;
    s.optimal_lt = 0.1;
    s.make = [](double p) {
      ImmOptions options;
      if (!IsDefault(p)) options.epsilon = p;
      return std::make_unique<Imm>(options);
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "SG";
    s.supports_ic = true;
    s.parameter_name = "#Snapshots";
    s.parameter_spectrum = {300, 250, 200, 150, 100, 50};
    s.optimal_ic = 250;
    s.optimal_wc = 250;
    s.make = [](double p) {
      return std::make_unique<StaticGreedy>(
          StaticGreedyOptions{AsCount(p, 250)});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "PMC";
    s.supports_ic = true;
    s.parameter_name = "#Snapshots";
    s.parameter_spectrum = {300, 250, 200, 150, 100, 50};
    s.optimal_ic = 200;
    s.optimal_wc = 250;
    s.make = [](double p) {
      return std::make_unique<Pmc>(PmcOptions{AsCount(p, 200)});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "LDAG";
    s.supports_lt = true;
    s.make = [](double) { return std::make_unique<Ldag>(LdagOptions{}); };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "SIMPATH";
    s.supports_lt = true;
    s.make = [](double) {
      return std::make_unique<Simpath>(SimpathOptions{});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "IRIE";
    s.supports_ic = true;
    s.make = [](double) { return std::make_unique<Irie>(IrieOptions{}); };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "EaSyIM";
    s.supports_ic = s.supports_lt = true;
    s.parameter_name = "#MC Simulations";
    s.parameter_spectrum = {1000, 500, 200, 100, 50, 25, 10};
    s.optimal_ic = 50;
    s.optimal_wc = 50;
    s.optimal_lt = 25;
    s.make = [](double p) {
      EasyImOptions options;
      options.simulations = AsCount(p, 50);
      return std::make_unique<EasyIm>(options);
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "IMRank1";
    s.supports_ic = true;
    s.parameter_name = "#Scoring Rounds";
    s.parameter_spectrum = {10, 8, 6, 4, 2, 1};
    s.optimal_ic = 10;
    s.optimal_wc = 10;
    s.make = [](double p) {
      ImRankOptions options;
      options.l = 1;
      options.scoring_rounds = AsCount(p, 10);
      return std::make_unique<ImRank>(options);
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "IMRank2";
    s.supports_ic = true;
    s.parameter_name = "#Scoring Rounds";
    s.parameter_spectrum = {10, 8, 6, 4, 2, 1};
    s.optimal_ic = 10;
    s.optimal_wc = 10;
    s.make = [](double p) {
      ImRankOptions options;
      options.l = 2;
      options.scoring_rounds = AsCount(p, 10);
      return std::make_unique<ImRank>(options);
    };
    specs.push_back(std::move(s));
  }

  // --- Extra baselines (subsumed by the suite, kept checkable). ---
  {
    AlgorithmSpec s;
    s.name = "GREEDY";
    s.supports_ic = s.supports_lt = true;
    s.in_benchmark = false;
    s.parameter_name = "#MC Simulations";
    s.parameter_spectrum = {10000, 5000, 2000, 1000, 500, 100};
    s.make = [](double p) {
      return std::make_unique<Greedy>(GreedyOptions{AsCount(p, 1000)});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "RIS";
    s.supports_ic = s.supports_lt = true;
    s.in_benchmark = false;  // subsumed by TIM+ and IMM (Sec. 4)
    s.parameter_name = "Budget x(m+n)";
    s.parameter_spectrum = {128, 64, 32, 16, 8};
    s.make = [](double p) {
      RisOptions options;
      if (!IsDefault(p)) options.budget_multiplier = p;
      return std::make_unique<Ris>(options);
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "Degree";
    s.supports_ic = s.supports_lt = true;
    s.in_benchmark = false;
    s.make = [](double) { return std::make_unique<DegreeHeuristic>(); };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "DegreeDiscount";
    s.supports_ic = true;
    s.in_benchmark = false;
    s.make = [](double) {
      return std::make_unique<DegreeDiscount>(DegreeDiscountOptions{});
    };
    specs.push_back(std::move(s));
  }
  {
    AlgorithmSpec s;
    s.name = "PageRank";
    s.supports_ic = s.supports_lt = true;
    s.in_benchmark = false;
    s.make = [](double) {
      return std::make_unique<PageRankHeuristic>(PageRankOptions{});
    };
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace

double AlgorithmSpec::OptimalParameterFor(WeightModel model) const {
  switch (model) {
    case WeightModel::kIcConstant:
    case WeightModel::kTrivalency:
      return optimal_ic;
    case WeightModel::kWc:
      return optimal_wc;
    case WeightModel::kLtUniform:
    case WeightModel::kLtRandom:
    case WeightModel::kLtParallel:
      return optimal_lt;
  }
  return kDefaultParameter;
}

const std::vector<AlgorithmSpec>& AlgorithmRegistry() {
  static const std::vector<AlgorithmSpec>& registry =
      *new std::vector<AlgorithmSpec>(BuildRegistry());
  return registry;
}

const AlgorithmSpec* FindAlgorithm(std::string_view name) {
  for (const AlgorithmSpec& spec : AlgorithmRegistry()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<ImAlgorithm> MakeAlgorithm(std::string_view name,
                                           double parameter) {
  const AlgorithmSpec* spec = FindAlgorithm(name);
  IMBENCH_CHECK_MSG(spec != nullptr, "unknown algorithm '%.*s'",
                    static_cast<int>(name.size()), name.data());
  return spec->make(parameter);
}

DiffusionKind DiffusionKindFor(WeightModel model) {
  switch (model) {
    case WeightModel::kIcConstant:
    case WeightModel::kWc:
    case WeightModel::kTrivalency:
      return DiffusionKind::kIndependentCascade;
    case WeightModel::kLtUniform:
    case WeightModel::kLtRandom:
    case WeightModel::kLtParallel:
      return DiffusionKind::kLinearThreshold;
  }
  return DiffusionKind::kIndependentCascade;
}

}  // namespace imbench
