#include "algorithms/tim_plus.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "diffusion/rr_sets.h"
#include "framework/trace.h"

namespace imbench {
namespace {

// ln C(n, k) via lgamma.
double LogChoose(double n, double k) {
  if (k <= 0 || k >= n) return 0;
  return std::lgamma(n + 1) - std::lgamma(k + 1) - std::lgamma(n - k + 1);
}

}  // namespace

SelectionResult TimPlus::Select(const SelectionInput& input) {
  const GraphView graph = input.View();
  const double n = static_cast<double>(graph.num_nodes());
  const double m = static_cast<double>(graph.num_edges());
  const uint32_t k = input.k;
  IMBENCH_CHECK(k >= 1 && k <= graph.num_nodes());
  const double eps = options_.epsilon;
  const double ell = options_.ell;
  last_stop_ = StopReason::kNone;

  // All sampling goes through one sampler: set j is always drawn from
  // Rng::ForStream(input.seed, j) on any number of lanes, so the seed set
  // is invariant under input.threads.
  SamplerOptions sampler_options;
  sampler_options.kind = input.diffusion;
  sampler_options.guard = input.guard;
  sampler_options.threads = input.threads;
  sampler_options.max_total_entries = options_.max_rr_entries;
  sampler_options.pool = input.pool;
  sampler_options.trace = input.trace;
  RrSampler sampler(graph, sampler_options);

  auto count_rr = [&](uint64_t c) {
    if (input.counters != nullptr) input.counters->rr_sets += c;
    TraceAdd(input.trace, TraceCounter::kRrSets, c);
  };

  // --- Phase 1a: KptEstimation (Alg. 2 of the TIM paper). ---
  const double log2n = std::max(1.0, std::log2(n));
  double kpt = 1.0;
  RrCollection kpt_sets(graph.num_nodes());  // last iteration's sample
  RrCollection sets(graph.num_nodes());
  double kpt_plus = kpt;
  {
    Span sample_span(input.trace, "sample");
    {
      Span kpt_span(input.trace, "kpt");
      std::vector<uint64_t> widths;
      for (int i = 1; i < static_cast<int>(log2n); ++i) {
        const double ci =
            (6 * ell * std::log(n) + 6 * std::log(log2n)) * std::pow(2.0, i);
        const uint64_t num_sets = static_cast<uint64_t>(std::ceil(ci));
        RrCollection sample(graph.num_nodes());
        widths.clear();
        const RrBatchResult batch =
            sampler.Generate(input.seed, num_sets, sample, &widths);
        count_rr(batch.generated);
        // κ(R) = 1 − (1 − w(R)/m)^k where w(R) is the number of arcs
        // entering R (the width the sampler reports).
        double kappa_sum = 0;
        for (const uint64_t width : widths) {
          const double p = std::min(1.0, static_cast<double>(width) / m);
          kappa_sum += 1.0 - std::pow(1.0 - p, static_cast<double>(k));
        }
        kpt_sets = std::move(sample);
        if (batch.stop != StopReason::kNone) {
          last_stop_ = batch.stop;
          break;
        }
        if (kappa_sum / static_cast<double>(num_sets) >
            1.0 / std::pow(2.0, i)) {
          kpt = n * kappa_sum / (2.0 * static_cast<double>(num_sets));
          break;
        }
      }
    }

    // --- Phase 1b: KPT refinement (the "+"). ---
    kpt_plus = kpt;
    if (last_stop_ == StopReason::kNone && kpt_sets.size() > 0) {
      Span refine_span(input.trace, "refine");
      const std::vector<NodeId> rough_seeds = kpt_sets.GreedyMaxCover(k);
      const double eps_prime =
          5.0 * std::cbrt(ell * eps * eps / (ell + static_cast<double>(k)));
      const double lambda_prime = (2.0 + eps_prime) * ell * n * std::log(n) /
                                  (eps_prime * eps_prime);
      const uint64_t theta_prime = static_cast<uint64_t>(
          std::ceil(std::max(1.0, lambda_prime / kpt)));
      // Cap the refinement sample; it only tightens the estimate.
      const uint64_t refine_sets = std::min<uint64_t>(theta_prime, 1u << 14);
      RrCollection refine_sample(graph.num_nodes());
      const RrBatchResult batch =
          sampler.Generate(input.seed, refine_sets, refine_sample, nullptr);
      count_rr(batch.generated);
      if (batch.stop != StopReason::kNone) last_stop_ = batch.stop;
      uint64_t covered = 0;
      std::vector<uint8_t> is_seed(graph.num_nodes(), 0);
      for (const NodeId s : rough_seeds) is_seed[s] = 1;
      for (size_t j = 0; j < refine_sample.size(); ++j) {
        for (const NodeId v : refine_sample.Set(j)) {
          if (is_seed[v]) {
            ++covered;
            break;
          }
        }
      }
      const double fraction =
          static_cast<double>(covered) / static_cast<double>(refine_sets);
      const double kpt_refined = fraction * n / (1.0 + eps_prime);
      kpt_plus = std::max(kpt_refined, kpt);
    }

    // --- Phase 2: node selection with θ = λ / KPT⁺. ---
    const double lambda =
        (8.0 + 2.0 * eps) * n *
        (ell * std::log(n) + LogChoose(n, k) + std::log(2.0)) / (eps * eps);
    const uint64_t theta =
        static_cast<uint64_t>(std::ceil(std::max(1.0, lambda / kpt_plus)));

    if (last_stop_ == StopReason::kNone) {
      Span final_span(input.trace, "final");
      // Pre-size the arena from the KPT-phase sample: θ sets at the
      // observed mean set size (capped by the entry-cap safety valve, so a
      // doomed run never reserves more than it is allowed to fill). This
      // turns the final phase's arena growth into one allocation instead
      // of a geometric re-grow series.
      if (kpt_sets.size() > 0) {
        const uint64_t mean_entries =
            (kpt_sets.TotalEntries() + kpt_sets.size() - 1) / kpt_sets.size();
        uint64_t estimate = theta * mean_entries;
        if (options_.max_rr_entries != 0) {
          estimate = std::min(estimate, options_.max_rr_entries);
        }
        sets.Reserve(theta, estimate);
      }
      const RrBatchResult batch =
          sampler.Generate(input.seed, theta, sets, nullptr);
      count_rr(batch.generated);
      if (batch.stop != StopReason::kNone) last_stop_ = batch.stop;
    }
  }

  // Best effort on truncation: greedy max cover over the partial corpus.
  SelectionResult result;
  double covered_fraction = 0;
  {
    Span select_span(input.trace, "select");
    result.seeds = sets.GreedyMaxCover(k, &covered_fraction);
  }
  // Extrapolated spread (Appendix A): fraction of covered sets scaled by n.
  result.internal_spread_estimate = covered_fraction * n;
  result.stop_reason = last_stop_;
  return result;
}

}  // namespace imbench
