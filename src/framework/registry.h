// Algorithm registry: one spec per benchmarked technique, carrying the
// model-support matrix (Table 5), the external parameter and its spectrum
// P (Alg. 3), the per-model optimal values found by the study (Table 2),
// and a factory.
#ifndef IMBENCH_FRAMEWORK_REGISTRY_H_
#define IMBENCH_FRAMEWORK_REGISTRY_H_

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/algorithm.h"
#include "graph/weights.h"

namespace imbench {

// Sentinel meaning "use the spec's default / Table 2 value".
inline constexpr double kDefaultParameter =
    std::numeric_limits<double>::quiet_NaN();

struct AlgorithmSpec {
  std::string name;
  bool supports_ic = false;  // IC-family weight models (IC, WC, TV)
  bool supports_lt = false;  // LT-family weight models
  // True for the eleven techniques of the study (Fig. 3); false for the
  // extra baselines (GREEDY, Degree, DegreeDiscount, PageRank).
  bool in_benchmark = true;

  // External parameter (Sec. 3.1.3). Empty name => the technique has none
  // (LDAG, SIMPATH, IRIE) and the spectrum is empty.
  std::string parameter_name;
  // P = {α_1, ..., α_|P|}, sorted most-accurate first.
  std::vector<double> parameter_spectrum;
  // Optimal values per model family from Table 2 (NaN where unsupported).
  double optimal_ic = kDefaultParameter;
  double optimal_wc = kDefaultParameter;
  double optimal_lt = kDefaultParameter;

  // Builds an instance configured with `parameter` (ignored when the
  // technique has none; NaN selects the authors' default).
  std::function<std::unique_ptr<ImAlgorithm>(double parameter)> make;

  bool Supports(DiffusionKind kind) const {
    return kind == DiffusionKind::kIndependentCascade ? supports_ic
                                                      : supports_lt;
  }
  bool HasParameter() const { return !parameter_name.empty(); }
  // Table 2 value for the given weight model (IC / WC / LT columns).
  double OptimalParameterFor(WeightModel model) const;
};

// All registered techniques, benchmark suite first.
const std::vector<AlgorithmSpec>& AlgorithmRegistry();

// Lookup by name ("CELF", "IMM", ...); nullptr if unknown.
const AlgorithmSpec* FindAlgorithm(std::string_view name);

// Convenience: build by name with an explicit or default parameter.
// Aborts on unknown name.
std::unique_ptr<ImAlgorithm> MakeAlgorithm(std::string_view name,
                                           double parameter = kDefaultParameter);

// The diffusion process a weight model pairs with.
DiffusionKind DiffusionKindFor(WeightModel model);

}  // namespace imbench

#endif  // IMBENCH_FRAMEWORK_REGISTRY_H_
