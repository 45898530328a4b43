#include "bn/discrete_inference.hpp"

#include <gtest/gtest.h>

#include "bn/tabular_cpd.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "support/fnv1a.hpp"
#include "support/networks.hpp"
#include "support/simd_tiers.hpp"

namespace kertbn::bn {
namespace {

using test_support::fnv1a_of;

/// The classic sprinkler network: Cloudy -> Sprinkler, Cloudy -> Rain,
/// (Sprinkler, Rain) -> WetGrass. Known exact posteriors.
BayesianNetwork sprinkler() {
  BayesianNetwork net;
  const auto c = net.add_node(Variable::discrete("cloudy", 2));
  const auto s = net.add_node(Variable::discrete("sprinkler", 2));
  const auto r = net.add_node(Variable::discrete("rain", 2));
  const auto w = net.add_node(Variable::discrete("wet", 2));
  net.add_edge(c, s);
  net.add_edge(c, r);
  net.add_edge(s, w);
  net.add_edge(r, w);
  net.set_cpd(c, std::make_unique<TabularCpd>(TabularCpd(2, {}, {0.5, 0.5})));
  net.set_cpd(s, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.5, 0.5, 0.9, 0.1})));
  net.set_cpd(r, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.8, 0.2, 0.2, 0.8})));
  // P(wet | s, r): rows (s,r) = (0,0),(0,1),(1,0),(1,1).
  net.set_cpd(w, std::make_unique<TabularCpd>(TabularCpd(
                     2, {2, 2},
                     {1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99})));
  return net;
}

TEST(VariableElimination, PriorMarginalsMatchHandComputation) {
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  // P(sprinkler=1) = 0.5*0.5 + 0.5*0.1 = 0.3.
  const auto ps = ve.posterior(1, {});
  EXPECT_NEAR(ps[1], 0.3, 1e-12);
  // P(rain=1) = 0.5*0.2 + 0.5*0.8 = 0.5.
  const auto pr = ve.posterior(2, {});
  EXPECT_NEAR(pr[1], 0.5, 1e-12);
}

TEST(VariableElimination, WetGrassPosteriorsKnownValues) {
  // Reference values for this parameterization (Murphy's BNT example):
  // P(sprinkler=1 | wet=1) ≈ 0.4298, P(rain=1 | wet=1) ≈ 0.7079.
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  const DiscreteEvidence wet{{3, 1}};
  EXPECT_NEAR(ve.posterior(1, wet)[1], 0.4298, 1e-3);
  EXPECT_NEAR(ve.posterior(2, wet)[1], 0.7079, 1e-3);
}

TEST(VariableElimination, ExplainingAway) {
  // Observing rain=1 in addition to wet=1 lowers P(sprinkler=1).
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  const double p_wet = ve.posterior(1, {{3, 1}})[1];
  const double p_wet_rain = ve.posterior(1, {{3, 1}, {2, 1}})[1];
  EXPECT_LT(p_wet_rain, p_wet);
}

TEST(VariableElimination, EvidenceProbability) {
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  // P(wet=1) = sum over all configs; brute force it.
  double p_wet = 0.0;
  for (int c = 0; c < 2; ++c) {
    for (int s = 0; s < 2; ++s) {
      for (int r = 0; r < 2; ++r) {
        const double pc = 0.5;
        const double ps = (c == 0 ? (s == 0 ? 0.5 : 0.5)
                                  : (s == 0 ? 0.9 : 0.1));
        const double pr = (c == 0 ? (r == 0 ? 0.8 : 0.2)
                                  : (r == 0 ? 0.2 : 0.8));
        const double table[4][2] = {
            {1.0, 0.0}, {0.1, 0.9}, {0.1, 0.9}, {0.01, 0.99}};
        const double pw = table[s * 2 + r][1];
        p_wet += pc * ps * pr * pw;
      }
    }
  }
  EXPECT_NEAR(ve.evidence_probability({{3, 1}}), p_wet, 1e-12);
}

/// A posterior is the elimination result divided by its total: each entry
/// is P(query = s, e) / P(e).
TEST(VariableElimination, PosteriorIsJointOverEvidenceProbability) {
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  const DiscreteEvidence wet{{3, 1}};
  const auto post = ve.posterior(2, wet);
  ASSERT_EQ(post.size(), 2u);
  EXPECT_NEAR(post[0] + post[1], 1.0, 1e-15);
  const double p_wet = ve.evidence_probability(wet);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_NEAR(post[s], ve.evidence_probability({{2, s}, {3, 1}}) / p_wet,
                1e-12);
  }
}

TEST(VariableElimination, AgreesWithForwardSamplingOnRandomNetwork) {
  // Random 5-node discrete network; compare VE posterior against rejection
  // sampling estimates.
  BayesianNetwork net;
  for (int i = 0; i < 5; ++i) {
    net.add_node(Variable::discrete("v" + std::to_string(i), 2));
  }
  net.add_edge(0, 2);
  net.add_edge(1, 2);
  net.add_edge(2, 3);
  net.add_edge(2, 4);
  kertbn::Rng param_rng(1);
  for (std::size_t v = 0; v < 5; ++v) {
    std::size_t configs = 1;
    std::vector<std::size_t> cards;
    for (std::size_t p : net.dag().parents(v)) {
      (void)p;
      cards.push_back(2);
      configs *= 2;
    }
    std::vector<double> table;
    for (std::size_t c = 0; c < configs; ++c) {
      const double p = param_rng.uniform(0.1, 0.9);
      table.push_back(p);
      table.push_back(1.0 - p);
    }
    net.set_cpd(v, std::make_unique<TabularCpd>(TabularCpd(2, cards, table)));
  }

  const VariableElimination ve(net);
  const DiscreteEvidence ev{{3, 1}};
  const auto exact = ve.posterior(0, ev);

  kertbn::Rng rng(2);
  std::size_t accepted = 0;
  std::size_t hits = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto row = net.sample_row(rng);
    if (row[3] == 1.0) {
      ++accepted;
      if (row[0] == 1.0) ++hits;
    }
  }
  ASSERT_GT(accepted, 1000u);
  EXPECT_NEAR(exact[1], hits / double(accepted), 0.02);
}

TEST(VariableElimination, RejectsContinuousNetworks) {
  BayesianNetwork net;
  net.add_node(Variable::continuous("x"));
  EXPECT_DEATH(VariableElimination ve(net), "precondition");
}

/// Evidence on a node the network does not have, or in a state its node
/// does not have, is a contract failure, not a silent prior.
TEST(VariableElimination, RejectsEvidenceOutsideTheNetwork) {
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  EXPECT_DEATH(ve.posterior(1, {{5, 0}}), "precondition");
  EXPECT_DEATH(ve.posterior(1, {{3, 2}}), "precondition");
  EXPECT_DEATH(ve.evidence_probability({{4, 1}}), "precondition");
}

/// Pins every posterior and P(e) variable elimination returns on seeded
/// random networks and on the 3- and 4-bin eDiaMoND KERT-BN. Every kernel
/// is bit-exact on every tier, so the digest holds on every tier.
TEST(VariableElimination, AnswersArePinnedOnEveryTier) {
  test_support::TierGuard guard;
  std::vector<BayesianNetwork> nets;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    nets.push_back(test_support::random_network(10, seed));
  }
  nets.push_back(test_support::ediamond_kert(3));
  nets.push_back(test_support::ediamond_kert(4));
  for (simd::Tier tier : test_support::runnable_tiers()) {
    simd::set_active_tier(tier);
    std::uint64_t h = test_support::kFnvOffset;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      const BayesianNetwork& net = nets[k];
      const VariableElimination ve(net);
      kertbn::Rng rng(1000 + k);
      // No evidence, the last node alone (D in eDiaMoND), then two and
      // three random nodes.
      for (std::size_t round = 0; round < 4; ++round) {
        DiscreteEvidence ev;
        if (round == 1) {
          const std::size_t last = net.size() - 1;
          ev[last] = rng.uniform_index(net.variable(last).cardinality);
        }
        for (std::size_t v : rng.permutation(net.size())) {
          if (round < 2 || ev.size() >= round) break;
          ev[v] = rng.uniform_index(net.variable(v).cardinality);
        }
        if (!ev.empty()) h = fnv1a_of(ve.evidence_probability(ev), h);
        for (std::size_t v = 0; v < net.size(); ++v) {
          if (ev.contains(v)) continue;
          for (double x : ve.posterior(v, ev)) h = fnv1a_of(x, h);
        }
      }
    }
    EXPECT_EQ(h, 0x477569ceb0f5aa01ull)
        << simd::to_string(tier) << std::hex << " digest 0x" << h;
  }
}

}  // namespace
}  // namespace kertbn::bn
