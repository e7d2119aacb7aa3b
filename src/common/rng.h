// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the benchmark (cascade simulation, RR-set
// sampling, graph generation, threshold draws) consume an explicit Rng so
// that every experiment is reproducible from a single 64-bit seed.
//
// The generator is xoshiro256++ seeded through SplitMix64 — fast,
// well-distributed, and identical across platforms (unlike std::mt19937
// combined with distribution objects, whose output is not portable).
#ifndef IMBENCH_COMMON_RNG_H_
#define IMBENCH_COMMON_RNG_H_

#include <cstdint>

namespace imbench {

// SplitMix64 step; used for seeding and as a cheap standalone mixer.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256++ generator. Copyable; copies evolve independently.
class Rng {
 public:
  // Seeds the four state words via SplitMix64 so any 64-bit seed (including
  // zero) produces a valid, decorrelated state.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    uint64_t sm = seed;
    for (uint64_t& word : state_) word = SplitMix64(sm);
  }

  // Next raw 64 random bits.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  // multiply-shift rejection-free mapping (bias is negligible for the
  // bounds used here, all far below 2^32).
  uint32_t NextU32(uint32_t bound) {
    return static_cast<uint32_t>(
        (static_cast<uint64_t>(static_cast<uint32_t>(NextU64())) * bound) >>
        32);
  }

  // Uniform integer in [0, bound) for 64-bit bounds.
  uint64_t NextU64(uint64_t bound) {
    // 128-bit multiply-shift.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(NextU64()) * bound) >> 64);
  }

  // True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Derives an independent stream for a (seed, stream) pair without
  // advancing this generator. Useful for giving each Monte-Carlo simulation
  // or worker its own reproducible stream.
  static Rng ForStream(uint64_t seed, uint64_t stream) {
    return Rng(StreamSeed(seed, stream));
  }
  // The seed ForStream(seed, stream) constructs its generator from, for
  // code that is handed a raw generator seed.
  static uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
    uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    return SplitMix64(sm);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace imbench

#endif  // IMBENCH_COMMON_RNG_H_
