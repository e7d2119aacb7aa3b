#include "algorithms/imm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "diffusion/rr_sets.h"
#include "framework/trace.h"

namespace imbench {
namespace {

double LogChoose(double n, double k) {
  if (k <= 0 || k >= n) return 0;
  return std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1);
}

}  // namespace

SelectionResult Imm::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  const double n = static_cast<double>(graph.num_nodes());
  const uint32_t k = input.k;
  IMBENCH_CHECK(k >= 1 && k <= graph.num_nodes());
  const double eps = options_.epsilon;
  // ℓ' = ℓ (1 + log 2 / log n): makes the two-phase union bound hold with
  // the advertised probability (Sec. 4.3 of the IMM paper).
  const double ell = options_.ell * (1.0 + std::log(2.0) / std::log(n));

  // One sampler for both phases: the corpus is always the prefix
  // Rng::ForStream(input.seed, 0..θ-1), so seed sets are invariant under
  // input.threads. The sampler's entry cap drains through kMemory, the
  // algorithm-local truncation the cap predates.
  SamplerOptions sampler_options;
  sampler_options.kind = input.diffusion;
  sampler_options.guard = input.guard;
  sampler_options.threads = input.threads;
  sampler_options.max_total_entries = options_.max_rr_entries;
  sampler_options.pool = input.pool;
  sampler_options.trace = input.trace;
  RrSampler sampler(graph, sampler_options);

  RrCollection sets(graph.num_nodes());
  StopReason stop = StopReason::kNone;

  auto generate_until = [&](uint64_t target) {
    if (sets.size() >= target || stop != StopReason::kNone) return;
    // Pre-size the arena from the corpus so far: the martingale phases
    // roughly double θ each round, so without this every round re-grows
    // the member arena several times over.
    if (sets.size() > 0) {
      const uint64_t mean_entries =
          (sets.TotalEntries() + sets.size() - 1) / sets.size();
      uint64_t estimate = target * mean_entries;
      if (options_.max_rr_entries != 0) {
        estimate = std::min(estimate, options_.max_rr_entries);
      }
      sets.Reserve(target, estimate);
    }
    const RrBatchResult batch =
        sampler.Generate(input.seed, target - sets.size(), sets, nullptr);
    if (input.counters != nullptr) input.counters->rr_sets += batch.generated;
    TraceAdd(input.trace, TraceCounter::kRrSets, batch.generated);
    stop = batch.stop;
  };

  const double log2n = std::max(1.0, std::log2(n));
  const double eps_prime = std::sqrt(2.0) * eps;
  const double log_comb = LogChoose(n, k);
  {
    Span sample_span(input.trace, "sample");
    // --- Phase 1: lower-bound OPT via martingale stopping (Alg. 2). ---
    const double lambda_prime =
        (2.0 + 2.0 / 3.0 * eps_prime) *
        (log_comb + ell * std::log(n) + std::log(std::max(1.0, log2n))) * n /
        (eps_prime * eps_prime);
    double lower_bound = 1.0;
    {
      Span bound_span(input.trace, "bound");
      for (int i = 1;
           i < static_cast<int>(log2n) && stop == StopReason::kNone; ++i) {
        const double x = n / std::pow(2.0, i);
        const uint64_t theta_i =
            static_cast<uint64_t>(std::ceil(lambda_prime / x));
        generate_until(theta_i);
        double fraction = 0;
        sets.GreedyMaxCover(k, &fraction);
        if (n * fraction >= (1.0 + eps_prime) * x) {
          lower_bound = n * fraction / (1.0 + eps_prime);
          break;
        }
      }
    }

    // --- Phase 2: θ = λ* / LB final sample (Alg. 3). ---
    const double alpha = std::sqrt(ell * std::log(n) + std::log(2.0));
    const double beta =
        std::sqrt((1.0 - 1.0 / std::exp(1.0)) *
                  (log_comb + ell * std::log(n) + std::log(2.0)));
    const double e_factor = 1.0 - 1.0 / std::exp(1.0);
    const double lambda_star =
        2.0 * n * (e_factor * alpha + beta) * (e_factor * alpha + beta) /
        (eps * eps);
    const uint64_t theta = static_cast<uint64_t>(
        std::ceil(std::max(1.0, lambda_star / lower_bound)));
    Span final_span(input.trace, "final");
    generate_until(theta);
  }

  // Max cover over whatever corpus exists is the natural best effort: the
  // seeds are still the greedy optimum for the sampled sets, just with a
  // weaker approximation guarantee.
  SelectionResult result;
  double covered_fraction = 0;
  {
    Span select_span(input.trace, "select");
    result.seeds = sets.GreedyMaxCover(k, &covered_fraction);
  }
  result.internal_spread_estimate = covered_fraction * n;
  result.stop_reason = stop;
  return result;
}

}  // namespace imbench
