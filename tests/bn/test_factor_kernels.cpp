#include "bn/factor_kernels.hpp"

#include <gtest/gtest.h>

#include "bn/factor.hpp"
#include "common/rng.hpp"
#include "support/factors.hpp"

namespace kertbn::bn {
namespace {

using test_support::expect_bitwise_equal;
using test_support::random_factor;
using test_support::to_factor;
using test_support::to_flat;

TEST(FactorKernels, ProductBitwiseMatchesLegacyFactor) {
  kertbn::Rng rng(101);
  FactorWorkspace ws;
  for (int rep = 0; rep < 50; ++rep) {
    // Overlapping scopes with varied cardinalities and orders.
    const Factor a = random_factor({0, 2, 5}, {2, 3, 2}, rng);
    const Factor b = random_factor({5, 1, 2}, {2, 2, 3}, rng);
    const Factor legacy = a.product(b);
    FlatFactor out;
    ws.product(to_flat(a), to_flat(b), out);
    expect_bitwise_equal(legacy, out);
  }
}

TEST(FactorKernels, ProductWithDisjointAndScalarOperands) {
  kertbn::Rng rng(102);
  FactorWorkspace ws;
  const Factor a = random_factor({3, 7}, {2, 3}, rng);
  const Factor b = random_factor({1}, {4}, rng);
  FlatFactor out;
  ws.product(to_flat(a), to_flat(b), out);
  expect_bitwise_equal(a.product(b), out);

  // Scalar (empty-scope) operand on either side.
  const Factor unit({}, {}, {0.75});
  ws.product(to_flat(a), to_flat(unit), out);
  expect_bitwise_equal(a.product(unit), out);
  ws.product(to_flat(unit), to_flat(a), out);
  expect_bitwise_equal(unit.product(a), out);
}

TEST(FactorKernels, ProductChainMatchesLeftFoldOfLegacyProducts) {
  kertbn::Rng rng(103);
  FactorWorkspace ws;
  const Factor base = random_factor({0, 1}, {2, 2}, rng);
  const Factor f1 = random_factor({1, 2}, {2, 3}, rng);
  const Factor f2 = random_factor({0, 3}, {2, 2}, rng);
  const Factor f3 = random_factor({2}, {3}, rng);
  const Factor legacy = base.product(f1).product(f2).product(f3);

  const FlatFactor fb = to_flat(base);
  const FlatFactor ff1 = to_flat(f1);
  const FlatFactor ff2 = to_flat(f2);
  const FlatFactor ff3 = to_flat(f3);
  const FlatFactor* chain[] = {&ff1, &ff2, &ff3};
  FlatFactor out;
  ws.product_chain(fb, chain, out);
  expect_bitwise_equal(legacy, out);

  // Empty chain copies the base.
  ws.product_chain(fb, {}, out);
  expect_bitwise_equal(base, out);
}

TEST(FactorKernels, ReduceBitwiseMatchesRepeatedMarginalize) {
  kertbn::Rng rng(104);
  FactorWorkspace ws;
  for (int rep = 0; rep < 50; ++rep) {
    const Factor f = random_factor({0, 1, 2, 3}, {2, 3, 2, 3}, rng);
    // Legacy elimination: first scope variable outside the target,
    // repeatedly (the marginalize_to loop).
    Factor legacy = f.marginalize(0).marginalize(2).marginalize(3);
    FlatFactor out;
    ws.reduce(to_flat(f), std::vector<std::size_t>{1}, out);
    expect_bitwise_equal(legacy, out);

    // Multi-variable target, single elimination step.
    Factor legacy2 = f.marginalize(1);
    ws.reduce(to_flat(f), std::vector<std::size_t>{0, 2, 3}, out);
    expect_bitwise_equal(legacy2, out);
  }
}

TEST(FactorKernels, ReduceToFullScopeCopies) {
  kertbn::Rng rng(105);
  FactorWorkspace ws;
  const Factor f = random_factor({4, 9}, {3, 2}, rng);
  FlatFactor out;
  ws.reduce(to_flat(f), std::vector<std::size_t>{4, 9}, out);
  expect_bitwise_equal(f, out);
}

TEST(FactorKernels, ApplyEvidenceBitwiseMatchesIndicatorProduct) {
  kertbn::Rng rng(106);
  for (int rep = 0; rep < 50; ++rep) {
    const Factor f = random_factor({0, 1, 2}, {2, 3, 2}, rng);
    const std::size_t var = rng.uniform_index(3);
    const std::size_t card = f.cardinalities()[var];
    const std::size_t state = rng.uniform_index(card);

    std::vector<double> indicator(card, 0.0);
    indicator[state] = 1.0;
    const Factor legacy =
        f.product(Factor({f.scope()[var]}, {card}, indicator));

    FlatFactor flat = to_flat(f);
    apply_evidence(flat, f.scope()[var], state);
    expect_bitwise_equal(legacy, flat);
  }
}

/// The evidence slice (out of place, as junction-tree reads use it, and in
/// place, as variable elimination uses it) against legacy Factor::reduce,
/// for every (variable, state) of factors with stride-1, outermost and
/// size-1 dimensions.
TEST(FactorKernels, EvidenceSliceBitwiseMatchesLegacyReduce) {
  kertbn::Rng rng(109);
  const std::vector<std::vector<std::size_t>> shapes = {
      {3, 4, 2}, {1, 3, 2}, {2, 1, 5}, {4, 3, 1},
      {5},       {1},       {2, 3, 1, 4, 3}};
  for (const auto& cards : shapes) {
    std::vector<std::size_t> scope;
    for (std::size_t i = 0; i < cards.size(); ++i) {
      scope.push_back((7 * i + 3) % 11);  // ids out of scope order
    }
    const Factor f = random_factor(scope, cards, rng);
    const FlatFactor flat = to_flat(f);
    FlatFactor out = FlatFactor::unit();  // reused across slices
    for (std::size_t d = 0; d < scope.size(); ++d) {
      for (std::size_t state = 0; state < cards[d]; ++state) {
        const Factor legacy = f.reduce(scope[d], state);
        reduce_evidence(flat, scope[d], state, out);
        expect_bitwise_equal(legacy, out);
        FlatFactor in_place = flat;
        reduce_evidence(in_place, scope[d], state);
        expect_bitwise_equal(legacy, in_place);
      }
    }
  }
}

TEST(FactorWorkspaceCache, PlansAreReusedAcrossCalls) {
  kertbn::Rng rng(107);
  FactorWorkspace ws;
  const Factor a = random_factor({0, 1}, {2, 3}, rng);
  const Factor b = random_factor({1, 2}, {3, 2}, rng);
  const FlatFactor fa = to_flat(a);
  const FlatFactor fb = to_flat(b);
  FlatFactor out;

  ws.product(fa, fb, out);
  EXPECT_EQ(ws.plan_misses(), 1u);
  EXPECT_EQ(ws.plan_hits(), 0u);
  for (int rep = 0; rep < 10; ++rep) ws.product(fa, fb, out);
  EXPECT_EQ(ws.plan_misses(), 1u);
  EXPECT_EQ(ws.plan_hits(), 10u);

  // A reduce with a new (scope, target) key is one more miss, then hits.
  FlatFactor reduced;
  ws.reduce(out, std::vector<std::size_t>{1}, reduced);
  ws.reduce(out, std::vector<std::size_t>{1}, reduced);
  EXPECT_EQ(ws.plan_misses(), 2u);
  EXPECT_EQ(ws.plan_hits(), 11u);
}

// One workspace, the same scope ids with other cardinalities: the plans
// bake in strides, so each shape needs its own; a plan built for one shape
// indexes out of bounds when run on another.
TEST(FactorWorkspaceCache, EqualScopesWithOtherCardinalitiesGetOwnPlans) {
  kertbn::Rng rng(109);
  FactorWorkspace ws;
  const std::vector<std::vector<std::size_t>> shapes = {
      {2, 3, 2}, {4, 5, 3}, {2, 3, 2}, {3, 2, 5}};
  for (const std::vector<std::size_t>& c : shapes) {
    const Factor a = random_factor({0, 1}, {c[0], c[1]}, rng);
    const Factor b = random_factor({1, 2}, {c[1], c[2]}, rng);
    FlatFactor product;
    ws.product(to_flat(a), to_flat(b), product);
    const Factor legacy = a.product(b);
    expect_bitwise_equal(legacy, product);

    FlatFactor reduced;
    ws.reduce(product, std::vector<std::size_t>{1}, reduced);
    expect_bitwise_equal(legacy.marginalize(0).marginalize(2), reduced);
  }
  // Three distinct shapes, a product and a reduce plan each; the repeated
  // shape hits both.
  EXPECT_EQ(ws.plan_misses(), 6u);
  EXPECT_EQ(ws.plan_hits(), 2u);
}

// A product and a two-operand chain over the same factors are one plan:
// the second call finds the plan the first one built.
TEST(FactorWorkspaceCache, ProductAndTwoOperandChainShareOnePlan) {
  kertbn::Rng rng(110);
  FactorWorkspace ws;
  const FlatFactor a = to_flat(random_factor({0, 1}, {2, 3}, rng));
  const FlatFactor b = to_flat(random_factor({1, 2}, {3, 2}, rng));
  FlatFactor product;
  FlatFactor chained;
  ws.product(a, b, product);
  const FlatFactor* chain[] = {&b};
  ws.product_chain(a, chain, chained);
  EXPECT_EQ(ws.plan_misses(), 1u);
  EXPECT_EQ(ws.plan_hits(), 1u);
  EXPECT_EQ(product.scope, chained.scope);
  EXPECT_EQ(product.values, chained.values);
}

TEST(FactorKernels, RoundTripThroughFactor) {
  kertbn::Rng rng(108);
  const Factor f = random_factor({2, 4}, {3, 2}, rng);
  const FlatFactor flat = to_flat(f);
  expect_bitwise_equal(to_factor(flat), flat);
  EXPECT_EQ(flat.total(), f.total());
}

}  // namespace
}  // namespace kertbn::bn
