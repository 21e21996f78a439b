#pragma once

// Small deterministic PRNGs.
//
// SplitMix64 is used for seeding; Xoshiro256** is the general-purpose
// generator (victim selection, test workloads).  Both are
// tiny, allocation-free, and safe to embed one-per-worker to avoid shared
// state.

#include <cstdint>

namespace pint {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound) { return next() % bound; }

  /// Uniform double in [0, 1).
  double next_double() { return double(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace pint
