#include "bn/factor.hpp"

#include <gtest/gtest.h>

namespace kertbn::bn {
namespace {

TEST(Factor, UnitFactor) {
  const Factor u = Factor::unit();
  EXPECT_TRUE(u.scope().empty());
  EXPECT_DOUBLE_EQ(u.total(), 1.0);
}

TEST(Factor, AtIndexesRowMajor) {
  // Scope (v0 card 2, v1 card 3); value = 10*s0 + s1 for verification.
  std::vector<double> values;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 3; ++b) values.push_back(10.0 * a + b);
  }
  const Factor f({0, 1}, {2, 3}, values);
  const std::size_t s00[] = {0, 0};
  const std::size_t s12[] = {1, 2};
  EXPECT_DOUBLE_EQ(f.at(s00), 0.0);
  EXPECT_DOUBLE_EQ(f.at(s12), 12.0);
  EXPECT_TRUE(f.has_variable(1));
  EXPECT_FALSE(f.has_variable(7));
}

TEST(Factor, ProductDisjointScopes) {
  const Factor a({0}, {2}, {0.4, 0.6});
  const Factor b({1}, {2}, {0.1, 0.9});
  const Factor p = a.product(b);
  EXPECT_EQ(p.scope(), (std::vector<std::size_t>{0, 1}));
  const std::size_t s11[] = {1, 1};
  EXPECT_NEAR(p.at(s11), 0.6 * 0.9, 1e-12);
  EXPECT_NEAR(p.total(), 1.0, 1e-12);
}

TEST(Factor, ProductSharedVariableAlignsStates) {
  // f(a) * g(a,b) must align on a.
  const Factor f({0}, {2}, {0.25, 0.75});
  const Factor g({0, 1}, {2, 2}, {0.9, 0.1, 0.2, 0.8});
  const Factor p = f.product(g);
  const std::size_t s01[] = {0, 1};
  const std::size_t s10[] = {1, 0};
  EXPECT_NEAR(p.at(s01), 0.25 * 0.1, 1e-12);
  EXPECT_NEAR(p.at(s10), 0.75 * 0.2, 1e-12);
}

TEST(Factor, ProductWithUnitIsIdentity) {
  const Factor f({3}, {2}, {0.3, 0.7});
  const Factor p = Factor::unit().product(f);
  EXPECT_EQ(p.scope(), f.scope());
  const std::size_t s1[] = {1};
  EXPECT_DOUBLE_EQ(p.at(s1), 0.7);
}

TEST(Factor, MarginalizeSumsOut) {
  const Factor g({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  const Factor m = g.marginalize(1);
  EXPECT_EQ(m.scope(), (std::vector<std::size_t>{0}));
  const std::size_t s0[] = {0};
  const std::size_t s1[] = {1};
  EXPECT_NEAR(m.at(s0), 0.3, 1e-12);
  EXPECT_NEAR(m.at(s1), 0.7, 1e-12);
}

TEST(Factor, MarginalizeFirstVariable) {
  const Factor g({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  const Factor m = g.marginalize(0);
  EXPECT_EQ(m.scope(), (std::vector<std::size_t>{1}));
  const std::size_t s0[] = {0};
  EXPECT_NEAR(m.at(s0), 0.4, 1e-12);
}

TEST(Factor, MarginalizeMiddleOfThree) {
  // Three binary vars with value = 4a + 2b + c (index payload).
  std::vector<double> values(8);
  for (std::size_t i = 0; i < 8; ++i) values[i] = static_cast<double>(i);
  const Factor f({0, 1, 2}, {2, 2, 2}, values);
  const Factor m = f.marginalize(1);
  EXPECT_EQ(m.scope(), (std::vector<std::size_t>{0, 2}));
  // (a=0,c=0): values at (0,0,0)+(0,1,0) = 0 + 2.
  const std::size_t s00[] = {0, 0};
  EXPECT_DOUBLE_EQ(m.at(s00), 2.0);
  // (a=1,c=1): values at (1,0,1)+(1,1,1) = 5 + 7.
  const std::size_t s11[] = {1, 1};
  EXPECT_DOUBLE_EQ(m.at(s11), 12.0);
}

TEST(Factor, ReduceDropsVariable) {
  const Factor g({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  const Factor r = g.reduce(0, 1);
  EXPECT_EQ(r.scope(), (std::vector<std::size_t>{1}));
  const std::size_t s0[] = {0};
  const std::size_t s1[] = {1};
  EXPECT_DOUBLE_EQ(r.at(s0), 0.3);
  EXPECT_DOUBLE_EQ(r.at(s1), 0.4);
}

TEST(Factor, MarginalizeThenReduceCommutesWithReduceThenMarginalize) {
  // On disjoint variables the two operations commute.
  std::vector<double> values(8);
  for (std::size_t i = 0; i < 8; ++i) values[i] = static_cast<double>(i + 1);
  const Factor f({0, 1, 2}, {2, 2, 2}, values);
  const Factor a = f.marginalize(2).reduce(0, 1);
  const Factor b = f.reduce(0, 1).marginalize(2);
  ASSERT_EQ(a.scope(), b.scope());
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t idx[] = {s};
    EXPECT_DOUBLE_EQ(a.at(idx), b.at(idx));
  }
}

TEST(Factor, ProductMarginalizeChainMatchesHandComputation) {
  // P(a) * P(b|a), marginalize a -> P(b).
  const Factor pa({0}, {2}, {0.3, 0.7});
  const Factor pba({0, 1}, {2, 2}, {0.9, 0.1, 0.4, 0.6});
  const Factor pb = pa.product(pba).marginalize(0);
  const std::size_t s0[] = {0};
  const std::size_t s1[] = {1};
  EXPECT_NEAR(pb.at(s0), 0.3 * 0.9 + 0.7 * 0.4, 1e-12);
  EXPECT_NEAR(pb.at(s1), 0.3 * 0.1 + 0.7 * 0.6, 1e-12);
}

}  // namespace
}  // namespace kertbn::bn
