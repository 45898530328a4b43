#pragma once
/// \file rng.hpp
/// Deterministic, explicitly-seeded random number generation.
///
/// Every stochastic component in kertbn takes an Rng by reference so that
/// experiments are exactly reproducible from a single seed.  The generator is
/// xoshiro256** (Blackman & Vigna) seeded through splitmix64 — fast,
/// high-quality, and tiny enough to embed per-agent in the decentralized
/// learning fabric without false sharing concerns.

#include <array>
#include <cstdint>
#include <vector>

namespace kertbn {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Satisfies the essentials of UniformRandomBitGenerator so it can also be
/// handed to <random> distributions if desired.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from \p seed; identical seeds replay identical
  /// streams.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()() { return step(state_); }

  /// Advances the stream by \p steps draws: afterwards the generator is
  /// exactly where \p steps operator() calls would have left it (a cached
  /// normal() value is kept, as those calls keep it).
  ///
  /// xoshiro256's state transition T is linear over GF(2), so by
  /// Cayley-Hamilton T^J = q(T) with q = x^J mod P, where P is T's
  /// characteristic polynomial (degree 256, see jump_polynomial). q is
  /// assembled from the bits of J: each set bit k >= 8 applies the
  /// precomputed x^(2^k) mod P (256 steps with conditional XORs), and the
  /// low 8 bits are stepped directly — at most ~14k steps for any J
  /// instead of J. Used to start independent streams at chosen positions
  /// of one stream (RngLanes).
  void jump(std::uint64_t steps);

  /// Coefficients of x^(2^k) mod P — the polynomial that advances the
  /// stream by 2^k draws — with bit b of word w the coefficient of
  /// x^(64w + b). P = x^256 + low is the characteristic polynomial of the
  /// xoshiro256 transition; jump_polynomial(128) is the reference
  /// implementation's JUMP constant. Costs k modular squarings.
  static std::array<std::uint64_t, 4> jump_polynomial(unsigned k);

  /// Uniform double in [0, 1).
  double uniform() { return to_unit(step(state_)); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Precondition: n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal draw (Box-Muller with caching).
  double normal();

  /// Normal draw with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Exponential draw with the given rate (> 0).
  double exponential(double rate);

  /// Log-normal draw: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma);

  /// Gamma draw with shape k > 0 and scale theta > 0
  /// (Marsaglia-Tsang for k >= 1, boosted for k < 1).
  double gamma(double shape, double scale);

  /// Pareto (type I) draw with scale xm > 0 and tail index alpha > 0.
  double pareto(double xm, double alpha);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Samples an index according to the (not necessarily normalized)
  /// non-negative weights. Precondition: at least one weight > 0.
  std::size_t categorical(const std::vector<double>& weights);

  /// Derives an independent child generator (for per-agent streams).
  Rng split();

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A uniformly random permutation of 0..n-1.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  friend class RngLanes;

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256** step: the definition every serial draw goes through.
  /// RngLanes' vector kernels restate it per lane and are tested against
  /// it.
  static std::uint64_t step(std::array<std::uint64_t, 4>& s) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  /// 53 random mantissa bits -> uniform in [0, 1).
  static double to_unit(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace kertbn
