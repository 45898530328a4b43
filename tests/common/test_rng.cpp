#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng_lanes.hpp"
#include "common/stats.hpp"
#include "support/simd_tiers.hpp"

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

TEST(Rng, JumpMatchesSequentialSteps) {
  // Around the 256-step polynomial boundary, the 64 * 6-draw eDiaMoND
  // configuration, and its 4-bin lane stride (512 configurations).
  std::vector<std::uint64_t> distances = {0,   1,   255, 256,    257,
                                          383, 384, 1'572'864};
  Rng pick(17);
  for (int i = 0; i < 8; ++i) distances.push_back(pick.uniform_index(1 << 20));
  for (std::uint64_t distance : distances) {
    Rng jumped(0x5EED5EED);
    Rng stepped(0x5EED5EED);
    jumped.jump(distance);
    for (std::uint64_t i = 0; i < distance; ++i) stepped();
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(jumped(), stepped()) << "distance " << distance << " draw " << i;
    }
  }
}

TEST(Rng, JumpReproducesPublishedXoshiroJump) {
  // The reference xoshiro256 jump() and long_jump() advance 2^128 and 2^192
  // draws; their constants are x^(2^128) and x^(2^192) mod P.
  const std::array<std::uint64_t, 4> jump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  const std::array<std::uint64_t, 4> long_jump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  EXPECT_EQ(Rng::jump_polynomial(128), jump);
  EXPECT_EQ(Rng::jump_polynomial(192), long_jump);
  // Below the degree of P, x^(2^k) is the monomial itself.
  const std::array<std::uint64_t, 4> x_to_128 = {0, 0, 1, 0};
  EXPECT_EQ(Rng::jump_polynomial(7), x_to_128);
}

TEST(Rng, LaneFillMatchesSerialStreamsOnEveryTier) {
  test_support::TierGuard guard;
  constexpr std::size_t kLanes = RngLanes::kLanes;
  constexpr std::size_t dims = 3;
  constexpr std::size_t samples = 5;
  constexpr std::size_t row_stride = kLanes * samples + 3;  // padded rows
  Rng pick(23);
  std::vector<double> lo(dims * kLanes);
  std::vector<double> w(dims * kLanes);
  for (std::size_t e = 0; e < lo.size(); ++e) {
    lo[e] = pick.uniform(-2.0, 2.0);
    w[e] = pick.uniform(0.0, 3.0);
  }
  for (std::uint64_t stride : {0u, 1u, 37u, 3000u}) {
    // Lane j's expected values: its serial stream, stepped j * stride in.
    std::vector<Rng> serial;
    for (std::size_t j = 0; j < kLanes; ++j) {
      serial.emplace_back(99);
      for (std::uint64_t i = 0; i < j * stride; ++i) serial.back()();
    }
    // Three fills: the state carries from one call to the next.
    std::vector<std::vector<double>> want(3);
    for (auto& fill : want) {
      fill.assign(dims * row_stride, 0.0);
      for (std::size_t k = 0; k < samples; ++k) {
        for (std::size_t d = 0; d < dims; ++d) {
          for (std::size_t j = 0; j < kLanes; ++j) {
            fill[d * row_stride + k * kLanes + j] =
                lo[d * kLanes + j] + w[d * kLanes + j] * serial[j].uniform();
          }
        }
      }
    }
    for (simd::Tier tier : test_support::runnable_tiers()) {
      simd::set_active_tier(tier);
      RngLanes lanes(Rng(99), stride);
      for (const auto& fill : want) {
        std::vector<double> got(dims * row_stride, 0.0);
        lanes.fill_boxes(got.data(), row_stride, dims, samples, lo.data(),
                         w.data());
        for (std::size_t e = 0; e < got.size(); ++e) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[e]),
                    std::bit_cast<std::uint64_t>(fill[e]))
              << simd::to_string(tier) << " stride " << stride << " entry "
              << e;
        }
      }
    }
  }
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
