// Deterministic pseudo-random number generation.
//
// Every generator in the repository derives its stream from an explicit
// 64-bit seed so that testbed matrices, traces and benchmarks are exactly
// reproducible across runs and machines. We implement xoshiro256** (public
// domain, Blackman & Vigna) seeded through SplitMix64 rather than relying on
// std::mt19937_64, whose distributions are not bit-reproducible across
// standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace scc {

/// SplitMix64: used to expand a single seed into generator state and to
/// derive independent child seeds (`Rng::fork`).
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One independent draw per site (seed, a, b, salt): the fault, SDC and
/// cluster-fault schedules address each decision by its site, so a schedule
/// does not depend on thread interleaving or query order.
constexpr std::uint64_t site_draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                                  std::uint64_t salt) {
  std::uint64_t state = seed;
  state ^= (a + 1) * 0x9e3779b97f4a7c15ULL;
  state ^= (b + 1) * 0xbf58476d1ce4e5b9ULL;
  state ^= (salt + 1) * 0x94d049bb133111ebULL;
  return splitmix64(state);
}

/// Parse a 64-bit seed from command-line text: decimal, or hex with an
/// 0x/0X prefix (seeds are conventionally written in hex, e.g. 0x5cc).
/// Throws on empty input, trailing garbage, or overflow past 2^64-1.
inline std::uint64_t parse_seed(const std::string& text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used, 0);  // base 0: decimal or 0x/0X hex
  } catch (const std::exception&) {
    used = 0;
  }
  SCC_REQUIRE(used == text.size() && !text.empty() && text.front() != '-',
              "cannot parse seed '" << text << "' (use decimal or 0x-prefixed hex)");
  return value;
}

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5cc5eedULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Computes floor(next()/2^64 * bound) via
  /// the 53-bit double mantissa; the resulting bias is < 2^-53 * bound,
  /// irrelevant for pattern generation, and avoids non-standard 128-bit
  /// arithmetic.
  std::uint64_t uniform(std::uint64_t bound) {
    SCC_REQUIRE(bound > 0, "Rng::uniform bound must be positive");
    const auto draw =
        static_cast<std::uint64_t>(uniform01() * static_cast<double>(bound));
    return draw < bound ? draw : bound - 1;
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t uniform_in(std::int64_t lo, std::int64_t hi) {
    SCC_REQUIRE(lo <= hi, "Rng::uniform_in requires lo <= hi, got " << lo << " > " << hi);
    return lo + static_cast<std::int64_t>(
                    uniform(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) {
    SCC_REQUIRE(lo <= hi, "Rng::uniform_real requires lo <= hi");
    return lo + (hi - lo) * uniform01();
  }

  /// Bernoulli draw with probability `p` of returning true.
  bool bernoulli(double p) { return uniform01() < p; }

  /// Derive an independent child generator; children with distinct tags are
  /// decorrelated regardless of how much the parent stream is consumed later.
  Rng fork(std::uint64_t tag) {
    std::uint64_t sm = state_[0] ^ (tag * 0x9e3779b97f4a7c15ULL) ^ state_[3];
    return Rng(splitmix64(sm));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace scc
