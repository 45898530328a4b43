#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/stats.hpp"

namespace kertbn {
namespace {

TEST(Rng, SameSeedReplaysIdenticalStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, FillUniformMatchesSequentialDraws) {
  Rng bulk(0x5EED5EED);
  Rng single(0x5EED5EED);
  for (std::size_t len : {0u, 1u, 383u, 384u}) {
    std::vector<double> out(len, -1.0);
    bulk.fill_uniform(out);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(out[i], single.uniform()) << "span " << len << " value " << i;
    }
  }
  // The stream position afterwards is the same too.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(bulk(), single());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 7.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexUnbiasedAcrossBuckets) {
  Rng rng(17);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, NormalZeroSigmaIsDeterministic) {
  Rng rng(29);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, ExponentialAlwaysPositive) {
  Rng rng(37);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(0.5), 0.0);
}

TEST(Rng, GammaMomentsMatch) {
  Rng rng(41);
  RunningStats stats;
  const double shape = 3.0;
  const double scale = 2.0;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gamma(shape, scale));
  EXPECT_NEAR(stats.mean(), shape * scale, 0.1);
  EXPECT_NEAR(stats.variance(), shape * scale * scale, 0.5);
}

TEST(Rng, GammaShapeBelowOneStillPositiveWithRightMean) {
  Rng rng(43);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.gamma(0.5, 1.0);
    EXPECT_GT(x, 0.0);
    stats.add(x);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(47);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(quantile(xs, 0.5), std::exp(1.0), 0.1);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(53);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 3.0), 2.0);
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(59);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng rng(61);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(67);
  std::vector<double> weights{1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(71);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.categorical(weights), 1u);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(73);
  Rng child = parent.split();
  // The child stream should differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(79);
  const auto p = rng.permutation(20);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 20u);
  EXPECT_EQ(*seen.rbegin(), 19u);
}

TEST(Rng, PermutationIsUniformish) {
  // Position of element 0 should be uniform over slots.
  Rng rng(83);
  std::vector<int> slot_counts(5, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto p = rng.permutation(5);
    for (std::size_t s = 0; s < 5; ++s) {
      if (p[s] == 0) ++slot_counts[s];
    }
  }
  for (int c : slot_counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.2, 0.015);
  }
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(89);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace kertbn
