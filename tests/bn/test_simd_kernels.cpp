/// \file test_simd_kernels.cpp
/// Per-tier equivalence suite for the runtime-dispatched inference
/// kernels. Every test runs on every dispatch tier the host supports
/// (KERTBN_SIMD-style switching via set_active_tier) and asserts the
/// DESIGN equivalence contract, bit-exact against the legacy Factor
/// operations on EVERY tier:
///
///   * products (pairwise and chained);
///   * reductions, against legacy Factor marginalization;
///   * messages (product chain, then reduce), against the legacy product
///     chain marginalized;
///   * evidence ops — pure data movement.
///
/// Shapes are seeded and adversarial on purpose: odd cardinalities,
/// size-1 dimensions, singleton scopes, and run lengths in 1..67 so
/// every SIMD tail-remainder path (n mod 4, n mod 8) is exercised.

#include "bn/factor_kernels.hpp"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "bn/factor.hpp"
#include "bn/factor_simd.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "support/factors.hpp"
#include "support/simd_tiers.hpp"

namespace kertbn::bn {
namespace {

using test_support::expect_bitwise_equal;
using test_support::random_factor;
using test_support::runnable_tiers;
using test_support::TierGuard;
using test_support::to_flat;

namespace sk = simd_kernels;

/// Adversarial cardinality universe: 1s, odd primes, and >=16 so wide
/// stride-1 sums are checked exactly. Factors sharing a variable must agree
/// on its cardinality, so each rep draws one universe and every factor of
/// the rep samples its scope from it.
std::vector<std::size_t> random_universe(kertbn::Rng& rng) {
  static const std::size_t kCards[] = {1, 2, 3, 4, 5, 7, 9, 16, 17};
  std::vector<std::size_t> cards(8);
  for (std::size_t& c : cards) {
    c = kCards[rng.uniform_index(sizeof(kCards) / sizeof(kCards[0]))];
  }
  return cards;
}

/// Random scope of 1..max_dims dims over \p universe, capped so tables
/// stay small.
Factor random_shape(kertbn::Rng& rng,
                    const std::vector<std::size_t>& universe,
                    std::size_t max_dims = 5) {
  const std::size_t nd = 1 + rng.uniform_index(max_dims);
  auto vars = rng.permutation(universe.size());
  std::vector<std::size_t> scope;
  std::vector<std::size_t> cards;
  std::size_t size = 1;
  for (std::size_t v : vars) {
    if (scope.size() >= nd) break;
    if (size * universe[v] > 4000) continue;
    scope.push_back(v);
    cards.push_back(universe[v]);
    size *= universe[v];
  }
  if (scope.empty()) {  // universe of wide cards only — take one dim
    scope.push_back(vars[0]);
    cards.push_back(universe[vars[0]]);
  }
  return random_factor(scope, cards, rng);
}

/// Legacy reference for FactorWorkspace::reduce — marginalize eliminated
/// variables in scope order (the order the ReducePlan eliminates in).
Factor legacy_reduce(const Factor& f, const std::vector<std::size_t>& target) {
  Factor out = f;
  const std::vector<std::size_t> scope = f.scope();  // copy: out mutates
  for (std::size_t var : scope) {
    bool keep = false;
    for (std::size_t t : target) keep = keep || (t == var);
    if (!keep) out = out.marginalize(var);
  }
  return out;
}

// --- dispatch layer ---------------------------------------------------------

TEST(SimdKernels, TierOverrideClampsToHostSupport) {
  TierGuard guard;
  const simd::Tier top = simd::highest_supported();
  EXPECT_LE(static_cast<int>(simd::set_active_tier(simd::Tier::kAvx512)),
            static_cast<int>(top));
  EXPECT_EQ(simd::set_active_tier(simd::Tier::kScalar),
            simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
}

TEST(SimdKernels, TierNamesAreStable) {
  EXPECT_STREQ(simd::to_string(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::to_string(simd::Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::to_string(simd::Tier::kAvx512), "avx512");
}

// --- primitive layer: every tail remainder in 1..67 -------------------------

TEST(SimdKernels, ChainMulPrimitiveBitExactOnEveryTierAndTail) {
  TierGuard guard;
  kertbn::Rng rng(9001);
  for (std::size_t n = 1; n <= 67; ++n) {
    std::vector<double> a(n), b(n);
    double c = rng.uniform(0.05, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(0.05, 1.0);
      b[i] = rng.uniform(0.05, 1.0);
    }
    // Two streaming operands and one broadcast.
    const sk::ChainOp ops[] = {{a.data(), 1}, {b.data(), 1}, {&c, 0}};
    std::vector<double> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = a[i] * b[i] * c;
    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      std::vector<double> got(n, -1.0);
      sk::active_ops().chain_mul(got.data(), ops, 3, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want[i], got[i])
            << "tier " << simd::to_string(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdKernels, ReduceColsPrimitiveBitExactOnEveryTier) {
  TierGuard guard;
  kertbn::Rng rng(9002);
  for (std::size_t stride : {std::size_t{4}, std::size_t{5}, std::size_t{8},
                             std::size_t{11}, std::size_t{16},
                             std::size_t{17}}) {
    for (std::size_t card : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                             std::size_t{7}}) {
      std::vector<double> in(stride * card);
      for (double& v : in) v = rng.uniform(0.05, 1.0);
      // Legacy order: acc = 0.0, k ascending per output column.
      std::vector<double> want(stride);
      for (std::size_t i = 0; i < stride; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < card; ++k) acc += in[k * stride + i];
        want[i] = acc;
      }
      for (simd::Tier tier : runnable_tiers()) {
        simd::set_active_tier(tier);
        std::vector<double> got(stride, -1.0);
        sk::active_ops().reduce_cols(got.data(), in.data(), stride, card);
        for (std::size_t i = 0; i < stride; ++i) {
          ASSERT_EQ(want[i], got[i])
              << "tier " << simd::to_string(tier) << " stride=" << stride
              << " card=" << card << " i=" << i;
        }
      }
    }
  }
}

// --- workspace layer: seeded factor shapes ----------------------------------

TEST(SimdKernels, PairwiseProductsBitExactOnEveryTierOverSeededShapes) {
  TierGuard guard;
  kertbn::Rng rng(9101);
  FactorWorkspace ws;
  for (int rep = 0; rep < 80; ++rep) {
    const std::vector<std::size_t> universe = random_universe(rng);
    const Factor a = random_shape(rng, universe);
    const Factor b = random_shape(rng, universe);
    const Factor legacy = a.product(b);
    const FlatFactor fa = to_flat(a);
    const FlatFactor fb = to_flat(b);
    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      FlatFactor out;
      ws.product(fa, fb, out);
      expect_bitwise_equal(legacy, out, simd::to_string(tier));
    }
  }
}

TEST(SimdKernels, ChainProductsBitExactOnEveryTierOverSeededShapes) {
  TierGuard guard;
  kertbn::Rng rng(9102);
  FactorWorkspace ws;
  for (int rep = 0; rep < 40; ++rep) {
    const std::vector<std::size_t> universe = random_universe(rng);
    const Factor base = random_shape(rng, universe, 3);
    const std::size_t k = 2 + rng.uniform_index(3);
    std::vector<Factor> fs;
    for (std::size_t i = 0; i < k; ++i) {
      fs.push_back(random_shape(rng, universe, 3));
    }
    Factor legacy = base;
    for (const Factor& f : fs) legacy = legacy.product(f);

    const FlatFactor fb = to_flat(base);
    std::vector<FlatFactor> flats;
    for (const Factor& f : fs) flats.push_back(to_flat(f));
    std::vector<const FlatFactor*> chain;
    for (const FlatFactor& f : flats) chain.push_back(&f);

    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      FlatFactor out;
      ws.product_chain(fb, chain, out);
      expect_bitwise_equal(legacy, out, simd::to_string(tier));
    }
  }
}

TEST(SimdKernels, ReduceBitExactOnEveryTierOverSeededShapes) {
  TierGuard guard;
  kertbn::Rng rng(9103);
  FactorWorkspace ws;
  for (int rep = 0; rep < 60; ++rep) {
    const Factor f = random_shape(rng, random_universe(rng));
    // Random strict-subset target (possibly empty: total marginalization).
    std::vector<std::size_t> target;
    for (std::size_t v : f.scope()) {
      if (rng.uniform_index(2) == 0) target.push_back(v);
    }
    if (target.size() == f.scope().size() && !target.empty()) {
      target.pop_back();
    }
    const Factor legacy = legacy_reduce(f, target);
    const FlatFactor ff = to_flat(f);
    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      FlatFactor out;
      ws.reduce(ff, target, out);
      expect_bitwise_equal(legacy, out, simd::to_string(tier));
    }
  }
}

TEST(SimdKernels, ProductChainReduceBitExactOnEveryTierOverSeededShapes) {
  TierGuard guard;
  kertbn::Rng rng(9104);
  FactorWorkspace ws;
  for (int rep = 0; rep < 40; ++rep) {
    const std::vector<std::size_t> universe = random_universe(rng);
    const Factor base = random_shape(rng, universe, 3);
    const std::size_t k = 1 + rng.uniform_index(3);
    std::vector<Factor> fs;
    for (std::size_t i = 0; i < k; ++i) {
      fs.push_back(random_shape(rng, universe, 3));
    }
    Factor joint = base;
    for (const Factor& f : fs) joint = joint.product(f);
    std::vector<std::size_t> target;
    for (std::size_t v : joint.scope()) {
      if (rng.uniform_index(2) == 0) target.push_back(v);
    }
    const Factor legacy = legacy_reduce(joint, target);

    const FlatFactor fb = to_flat(base);
    std::vector<FlatFactor> flats;
    for (const Factor& f : fs) flats.push_back(to_flat(f));
    std::vector<const FlatFactor*> chain;
    for (const FlatFactor& f : flats) chain.push_back(&f);

    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      FlatFactor out;
      ws.product_chain_reduce(fb, chain, target, out);
      expect_bitwise_equal(legacy, out, simd::to_string(tier));
    }
  }
}

TEST(SimdKernels, PlansSurviveTierSwitchesMidRun) {
  // Plans are tier-independent: a plan built under one tier must execute
  // correctly under another (QueryEngine workers never rebuild plans when
  // a test flips KERTBN_SIMD between batches).
  TierGuard guard;
  kertbn::Rng rng(9105);
  FactorWorkspace ws;
  const Factor a = random_factor({0, 1, 2}, {3, 17, 2}, rng);
  const Factor b = random_factor({2, 3}, {2, 16}, rng);
  const Factor legacy = a.product(b);
  const FlatFactor fa = to_flat(a);
  const FlatFactor fb = to_flat(b);
  FlatFactor out;
  for (simd::Tier tier : runnable_tiers()) {
    simd::set_active_tier(tier);
    ws.product(fa, fb, out);  // same cached plan, different primitives
    expect_bitwise_equal(legacy, out, simd::to_string(tier));
  }
  EXPECT_GE(ws.plan_hits(), runnable_tiers().size() - 1);
}

// --- evidence ops ------------------------------------------------------------

TEST(SimdKernels, EvidenceOpsBitExactOnEveryTier) {
  TierGuard guard;
  kertbn::Rng rng(9106);
  for (int rep = 0; rep < 20; ++rep) {
    const Factor f = random_shape(rng, random_universe(rng));
    const std::size_t dim = rng.uniform_index(f.scope().size());
    const std::size_t var = f.scope()[dim];
    const std::size_t state = rng.uniform_index(f.cardinalities()[dim]);
    const Factor sliced = f.reduce(var, state);
    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      // reduce_evidence == Factor::reduce (drops the variable).
      FlatFactor g = to_flat(f);
      reduce_evidence(g, var, state);
      expect_bitwise_equal(sliced, g, "reduce_evidence");
      // apply_evidence keeps the dimension and zeroes other states.
      FlatFactor h = to_flat(f);
      apply_evidence(h, var, state);
      ASSERT_EQ(h.scope, f.scope());
      double kept = 0.0, zeroed = 0.0;
      for (double v : h.values) (v == 0.0 ? zeroed : kept) += v;
      ASSERT_EQ(kept, sliced.total());
      ASSERT_EQ(zeroed, 0.0);
    }
  }
}

}  // namespace
}  // namespace kertbn::bn
