// Selectable Monte-Carlo diffusion engines for spread estimation.
// kScalar runs one cascade at a time (diffusion/cascade.h); kFused64 packs
// 64 simulations into one uint64_t lane word per node and expands all
// frontiers with word operations (diffusion/fused_cascade.h). kAuto picks
// fused when the workload is block-shaped (>= 64 simulations, no live-Rng
// streaming) and scalar otherwise; both resolutions are deterministic in
// the options alone, so auto-dispatch never makes a result depend on the
// machine it ran on.
#ifndef IMBENCH_DIFFUSION_MC_ENGINE_H_
#define IMBENCH_DIFFUSION_MC_ENGINE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace imbench {

enum class McEngine : uint8_t {
  kAuto,
  kScalar,
  kFused64,
};

inline const char* McEngineName(McEngine engine) {
  switch (engine) {
    case McEngine::kAuto: return "auto";
    case McEngine::kScalar: return "scalar";
    case McEngine::kFused64: return "fused";
  }
  return "?";
}

// Accepts the --mc-engine spellings. Returns false (leaving *out alone) on
// anything else.
inline bool ParseMcEngine(std::string_view name, McEngine* out) {
  if (name == "auto") { *out = McEngine::kAuto; return true; }
  if (name == "scalar") { *out = McEngine::kScalar; return true; }
  if (name == "fused" || name == "fused64") {
    *out = McEngine::kFused64;
    return true;
  }
  return false;
}

}  // namespace imbench

#endif  // IMBENCH_DIFFUSION_MC_ENGINE_H_
