/// Smoke-level checks of every paper claim the figure benches exercise, on
/// reduced instances so they run inside the unit-test budget. The full
/// harness (bench/) produces the real series; these tests pin the *shape*
/// so a regression in any figure is caught by ctest, not only by reading
/// bench output.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "bn/discrete_inference.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "kert/applications.hpp"
#include "kert/kert_builder.hpp"
#include "kert/nrt_builder.hpp"
#include "sosim/synthetic.hpp"
#include "workflow/ediamond.hpp"

namespace kertbn {
namespace {

using S = wf::EdiamondServices;

std::vector<bn::Variable> continuous_vars(const bn::Dataset& data) {
  std::vector<bn::Variable> vars;
  for (const auto& name : data.column_names()) {
    vars.push_back(bn::Variable::continuous(name));
  }
  return vars;
}

/// One construction input: an environment and its training set.
struct Instance {
  const sim::SyntheticEnvironment* env;
  const bn::Dataset* train;
};

/// KERT and NRT construction seconds per instance, each the minimum of
/// five repetitions of the same deterministic construction (K2 reseeded
/// with \p k2_seed every time). A construction takes tens of microseconds
/// to milliseconds, so one preemption can inflate a single wall-clock
/// sample many times over, while the minimum tracks the work. The
/// repetitions go round-robin over the instances, so a stretch of slow
/// host time lands on every instance instead of on one.
std::vector<std::pair<double, double>> construction_seconds(
    const std::vector<Instance>& instances, std::uint64_t k2_seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<double, double>> best(instances.size(), {kInf, kInf});
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Instance& in = instances[i];
      const double kert =
          core::construct_kert_continuous(in.env->workflow(),
                                          in.env->sharing(), *in.train)
              .report.total_seconds;
      kertbn::Rng k2_rng(k2_seed);
      const double nrt =
          core::construct_nrt(*in.train, continuous_vars(*in.train), k2_rng)
              .report.total_seconds;
      best[i].first = std::min(best[i].first, kert);
      best[i].second = std::min(best[i].second, nrt);
    }
  }
  return best;
}

TEST(Fig3Shape, KertCheaperAndGapWidensWithData) {
  kertbn::Rng rng(1);
  sim::SyntheticEnvironment env = sim::make_random_environment(20, rng);
  const bn::Dataset small = env.generate(36, rng);
  const bn::Dataset large = env.generate(720, rng);
  const auto times = construction_seconds({{&env, &small}, {&env, &large}}, 2);
  const auto [kert_small, nrt_small] = times[0];
  const auto [kert_large, nrt_large] = times[1];
  EXPECT_LT(kert_small, nrt_small);
  EXPECT_LT(kert_large, nrt_large);
  // Absolute gap widens with training size.
  EXPECT_GT(nrt_large - kert_large, nrt_small - kert_small);
}

TEST(Fig3Shape, KertAccuracyConvergesFasterThanNrt) {
  kertbn::Rng rng(3);
  sim::SyntheticEnvironment env = sim::make_random_environment(20, rng);
  const bn::Dataset test = env.generate(100, rng);

  auto fits = [&](std::size_t rows) {
    const bn::Dataset train = env.generate(rows, rng);
    const auto kert =
        core::construct_kert_continuous(env.workflow(), env.sharing(), train);
    kertbn::Rng k2_rng(4);
    const auto nrt =
        core::construct_nrt(train, continuous_vars(train), k2_rng);
    return std::pair{kert.net.log10_likelihood(test) / 100.0,
                     nrt.net.log10_likelihood(test) / 100.0};
  };
  const auto [kert36, nrt36] = fits(36);
  const auto [kert720, nrt720] = fits(720);
  // KERT >= NRT at both sizes.
  EXPECT_GT(kert36, nrt36);
  EXPECT_GE(kert720, nrt720 - 0.05);
  // NRT's small-vs-large gap exceeds KERT's (data sensitivity).
  EXPECT_GT(nrt720 - nrt36, kert720 - kert36 - 0.05);
}

TEST(Fig4Shape, NrtSuperlinearKertNear_linear) {
  kertbn::Rng rng(5);
  const sim::SyntheticEnvironment env10 = sim::make_random_environment(10, rng);
  const bn::Dataset train10 = env10.generate(36, rng);
  const sim::SyntheticEnvironment env40 = sim::make_random_environment(40, rng);
  const bn::Dataset train40 = env40.generate(36, rng);
  const auto times =
      construction_seconds({{&env10, &train10}, {&env40, &train40}}, 6);
  const auto [kert10, nrt10] = times[0];
  const auto [kert40, nrt40] = times[1];
  // 4x services: NRT grows super-linearly (>6x), KERT stays within ~6x.
  EXPECT_GT(nrt40 / nrt10, 6.0);
  EXPECT_LT(kert40 / std::max(kert10, 1e-9), 8.0);
}

TEST(Fig5Shape, DecentralizedMaxBelowCentralizedSum) {
  kertbn::Rng rng(7);
  sim::SyntheticEnvironment env = sim::make_random_environment(40, rng);
  const bn::Dataset train = env.generate(80, rng);
  const auto result = core::construct_kert_continuous(
      env.workflow(), env.sharing(), train,
      core::LearningMode::kDecentralized);
  EXPECT_LT(result.report.decentralized_seconds,
            result.report.centralized_equivalent_seconds);
}

TEST(Fig6Shape, DCompPosteriorNarrowsAndTracksChange) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(8);
  const bn::Dataset train = env.generate(400, rng);
  const auto kert =
      core::construct_kert_continuous(env.workflow(), env.sharing(), train);

  sim::SyntheticEnvironment degraded = env;
  degraded.accelerate_service(S::kImageLocatorRemote, 1.5);
  const bn::Dataset live = degraded.generate(100, rng);
  bn::ContinuousEvidence observed;
  for (std::size_t s = 0; s <= 6; ++s) {
    if (s == S::kImageLocatorRemote) continue;
    observed[s] = mean(live.column(s));
  }
  const double actual = mean(live.column(S::kImageLocatorRemote));
  const auto result = core::dcomp_continuous(
      kert.net, S::kImageLocatorRemote, observed, rng, 40000);
  EXPECT_LT(result.posterior.stddev, result.prior.stddev);
  EXPECT_LT(std::abs(result.posterior.mean - actual),
            std::abs(result.prior.mean - actual));
}

TEST(Fig7Shape, PAccelProjectionWithinTolerance) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(9);
  const bn::Dataset train = env.generate(600, rng);
  const core::DatasetDiscretizer disc(train, 7);
  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));

  const double x4_mean = mean(train.column(S::kImageLocatorRemote));
  const auto projection = core::paccel_discrete(
      kert.net, S::kImageLocatorRemote,
      disc.column(S::kImageLocatorRemote).bin_of(0.9 * x4_mean), &disc);

  sim::SyntheticEnvironment accelerated = env;
  accelerated.accelerate_service(S::kImageLocatorRemote, 0.9);
  const double observed = mean(accelerated.generate(4000, rng).column(6));
  EXPECT_NEAR(projection.projected_response.mean, observed, 0.05);
}

TEST(Fig8Shape, KertEpsilonBelowNrtOnAverage) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(10);
  const bn::Dataset train = env.generate(1200, rng);
  const core::DatasetDiscretizer disc(train, 7);
  const bn::Dataset train_d = disc.discretize(train);

  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, train_d);
  std::vector<bn::Variable> vars;
  for (const auto& name : train_d.column_names()) {
    vars.push_back(bn::Variable::discrete(name, 7));
  }
  core::NrtOptions opts;
  opts.restarts = 10;
  kertbn::Rng k2_rng(11);
  const auto nrt = core::construct_nrt(train_d, vars, k2_rng, opts);

  const double x4_mean = mean(train.column(S::kImageLocatorRemote));
  const bn::DiscreteEvidence evidence{
      {S::kImageLocatorRemote,
       disc.column(S::kImageLocatorRemote).bin_of(0.9 * x4_mean)}};
  sim::SyntheticEnvironment accelerated = env;
  accelerated.accelerate_service(S::kImageLocatorRemote, 0.9);
  const auto d_real = accelerated.generate(6000, rng).column(6);

  const bn::VariableElimination ve_kert(kert.net);
  const bn::VariableElimination ve_nrt(nrt.net);
  const auto kert_dist = ve_kert.posterior(6, evidence);
  const auto nrt_dist = ve_nrt.posterior(6, evidence);

  double eps_kert = 0.0;
  double eps_nrt = 0.0;
  for (double q : {0.4, 0.6, 0.8}) {
    const double h = quantile(d_real, q);
    const double p_real = exceedance_probability(d_real, h);
    ASSERT_GT(p_real, 0.0);
    eps_kert += core::relative_violation_error(
        disc.column(6).exceedance(kert_dist, h), p_real);
    eps_nrt += core::relative_violation_error(
        disc.column(6).exceedance(nrt_dist, h), p_real);
  }
  EXPECT_LT(eps_kert, eps_nrt);
}

}  // namespace
}  // namespace kertbn
