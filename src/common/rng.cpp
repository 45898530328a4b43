#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/contract.hpp"

namespace kertbn {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A polynomial over GF(2) of degree < 256: bit b of word w is the
/// coefficient of x^(64w + b).
using Poly = std::array<std::uint64_t, 4>;

/// The terms of P below x^256, where P(x) = x^256 + kCharLow(x) is the
/// characteristic polynomial of the xoshiro256 state transition
/// (recovered by Berlekamp-Massey from the bit sequence of one state bit;
/// Rng.JumpReproducesPublishedXoshiroJump checks it against the reference
/// JUMP constant).
constexpr Poly kCharLow = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                           0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/// a^2 mod P. Over GF(2) squaring spreads the coefficients (the cross
/// terms cancel); the upper half then folds back through x^256 = kCharLow,
/// top term first, since each fold only sets lower terms.
constexpr Poly square_mod_p(const Poly& a) {
  std::array<std::uint64_t, 8> sq{};
  for (int b = 0; b < 256; ++b) {
    if ((a[b / 64] >> (b % 64)) & 1) sq[b / 32] |= 1ULL << ((2 * b) % 64);
  }
  for (int b = 511; b >= 256; --b) {
    if (((sq[b / 64] >> (b % 64)) & 1) == 0) continue;
    sq[b / 64] ^= 1ULL << (b % 64);
    const int word = (b - 256) / 64;
    const int bit = (b - 256) % 64;
    for (int w = 0; w < 4; ++w) {
      sq[w + word] ^= kCharLow[w] << bit;
      if (bit != 0) sq[w + word + 1] ^= kCharLow[w] >> (64 - bit);
    }
  }
  return {sq[0], sq[1], sq[2], sq[3]};
}

constexpr Poly pow2_mod_p(unsigned k) {
  Poly p = {2, 0, 0, 0};  // x
  for (unsigned i = 0; i < k; ++i) p = square_mod_p(p);
  return p;
}

/// x^(2^k) mod P for every bit k of a 64-bit jump distance.
constexpr std::array<Poly, 64> kPow2 = [] {
  std::array<Poly, 64> t{};
  Poly p = pow2_mod_p(0);
  for (Poly& entry : t) {
    entry = p;
    p = square_mod_p(p);
  }
  return t;
}();

}  // namespace

void Rng::jump(std::uint64_t steps) {
  // state <- q(T) state = sum over the terms x^b of q of T^b state.
  for (unsigned k = 8; k < 64; ++k) {
    if (((steps >> k) & 1) == 0) continue;
    const Poly& q = kPow2[k];
    std::array<std::uint64_t, 4> acc{};
    for (unsigned b = 0; b < 256; ++b) {
      if ((q[b / 64] >> (b % 64)) & 1) {
        for (int w = 0; w < 4; ++w) acc[w] ^= state_[w];
      }
      step(state_);
    }
    state_ = acc;
  }
  for (std::uint64_t i = steps & 0xFF; i > 0; --i) step(state_);
}

std::array<std::uint64_t, 4> Rng::jump_polynomial(unsigned k) {
  return pow2_mod_p(k);
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
  has_cached_normal_ = false;
}

double Rng::uniform(double lo, double hi) {
  KERTBN_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  KERTBN_EXPECTS(n > 0);
  // Lemire's nearly-divisionless bounded generation with rejection.
  std::uint64_t x = (*this)();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<unsigned __int128>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  KERTBN_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 strictly positive to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) {
  KERTBN_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::exponential(double rate) {
  KERTBN_EXPECTS(rate > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::gamma(double shape, double scale) {
  KERTBN_EXPECTS(shape > 0.0);
  KERTBN_EXPECTS(scale > 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(k) = Gamma(k+1) * U^{1/k}.
    const double u = std::max(uniform(), 1e-300);
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

double Rng::pareto(double xm, double alpha) {
  KERTBN_EXPECTS(xm > 0.0);
  KERTBN_EXPECTS(alpha > 0.0);
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

bool Rng::bernoulli(double p) {
  KERTBN_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    KERTBN_EXPECTS(w >= 0.0);
    total += w;
  }
  KERTBN_EXPECTS(total > 0.0);
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::split() { return Rng((*this)()); }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

}  // namespace kertbn
