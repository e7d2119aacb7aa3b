#include "framework/fault.h"

#include <cstdlib>
#include <utility>

#include "common/rng.h"
#include "framework/sealed_file.h"

namespace imbench {

namespace {

// FNV-1a over the site name: folds the site into the RNG stream index so
// two sites at the same hit number draw independent verdicts.
uint64_t HashSite(std::string_view site) {
  return Fnv1a(site.data(), site.size());
}

bool FailSpec(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

bool ParseFaultPlan(const std::string& spec, FaultPlan* plan,
                    std::string* error) {
  plan->rules.clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string rule_text =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (rule_text.empty()) continue;

    FaultRule rule;
    size_t field = 0;
    bool first = true;
    bool have_trigger = false;
    while (field < rule_text.size()) {
      const size_t colon = rule_text.find(':', field);
      const std::string token = rule_text.substr(
          field, colon == std::string::npos ? colon : colon - field);
      field = colon == std::string::npos ? rule_text.size() : colon + 1;
      if (first) {
        if (token.empty()) {
          return FailSpec(error, "rule '" + rule_text + "' has no site name");
        }
        rule.site = token;
        first = false;
        continue;
      }
      const size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        return FailSpec(error, "bad option '" + token + "' in rule '" +
                                   rule_text + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      char* end = nullptr;
      if (key == "hit") {
        rule.fire_on_hit = std::strtoull(value.c_str(), &end, 10);
        if (*end != '\0' || rule.fire_on_hit == 0) {
          return FailSpec(error, "bad hit '" + value + "' (want a positive "
                                                       "integer)");
        }
        have_trigger = true;
      } else if (key == "fires") {
        rule.max_fires = std::strtoull(value.c_str(), &end, 10);
        if (*end != '\0' || rule.max_fires == 0) {
          return FailSpec(error, "bad fires '" + value + "'");
        }
      } else if (key == "p") {
        rule.probability = std::strtod(value.c_str(), &end);
        if (*end != '\0' || rule.probability <= 0 || rule.probability > 1) {
          return FailSpec(error, "bad probability '" + value + "'");
        }
        have_trigger = true;
      } else if (key == "reason") {
        if (!ParseStopReason(value, &rule.reason) ||
            rule.reason == StopReason::kNone) {
          return FailSpec(error, "bad reason '" + value +
                                     "' (fault|deadline|memory|cancelled)");
        }
      } else {
        return FailSpec(error, "unknown option '" + key + "' in rule '" +
                                   rule_text + "'");
      }
    }
    if (rule.site.empty()) {
      return FailSpec(error, "rule '" + rule_text + "' has no site name");
    }
    if (!have_trigger) {
      return FailSpec(error, "rule '" + rule_text +
                                 "' needs a trigger (hit=N or p=X)");
    }
    plan->rules.push_back(std::move(rule));
  }
  if (plan->rules.empty()) {
    return FailSpec(error, "fault plan has no rules");
  }
  return true;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  plan_ = std::move(plan);
  sites_.clear();
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_.store(false, std::memory_order_relaxed);
  plan_.rules.clear();
  sites_.clear();
}

bool FaultInjector::Fire(std::string_view site, StopReason* reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!armed_.load(std::memory_order_relaxed)) return false;  // raced Disarm
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(site), SiteState{}).first;
  }
  SiteState& state = it->second;
  const uint64_t hit = ++state.hits;  // 1-based
  for (const FaultRule& rule : plan_.rules) {
    if (rule.site != site) continue;
    bool fires = rule.fire_on_hit != 0 && hit >= rule.fire_on_hit &&
                 hit < rule.fire_on_hit + rule.max_fires;
    if (!fires && rule.probability > 0) {
      // One deterministic draw per (plan seed, site, hit): the verdict is
      // independent of which thread hits the site or in what order, which
      // is what makes probabilistic plans replayable.
      Rng rng = Rng::ForStream(plan_.seed ^ HashSite(site), hit);
      fires = rng.NextDouble() < rule.probability;
    }
    if (fires) {
      ++state.fires;
      if (reason != nullptr) *reason = rule.reason;
      return true;
    }
  }
  return false;
}

uint64_t FaultInjector::Hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::Fires(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

}  // namespace imbench
