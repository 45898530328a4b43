#include <gtest/gtest.h>

#include <cmath>

#include "bn/discrete_inference.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "support/fnv1a.hpp"
#include "support/networks.hpp"
#include "support/simd_tiers.hpp"

namespace kertbn::bn {
namespace {

using test_support::fnv1a_of;

/// Brute-force MPE oracle: enumerate every full assignment.
MpeResult brute_force_mpe(const BayesianNetwork& net,
                          const DiscreteEvidence& evidence) {
  const std::size_t n = net.size();
  std::vector<std::size_t> assignment(n, 0);
  std::vector<double> row(n, 0.0);
  MpeResult best;
  best.states.assign(n, 0);
  best.log_probability = -std::numeric_limits<double>::infinity();

  std::vector<double> parent_buf;
  for (;;) {
    bool consistent = true;
    for (const auto& [v, s] : evidence) {
      if (assignment[v] != s) {
        consistent = false;
        break;
      }
    }
    if (consistent) {
      for (std::size_t v = 0; v < n; ++v) {
        row[v] = static_cast<double>(assignment[v]);
      }
      double lp = 0.0;
      for (std::size_t v = 0; v < n; ++v) {
        const auto pars = net.dag().parents(v);
        parent_buf.resize(pars.size());
        for (std::size_t i = 0; i < pars.size(); ++i) {
          parent_buf[i] = row[pars[i]];
        }
        lp += net.cpd(v).log_prob(row[v], parent_buf);
      }
      if (lp > best.log_probability) {
        best.log_probability = lp;
        best.states = assignment;
      }
    }
    std::size_t v = 0;
    while (v < n) {
      if (++assignment[v] < net.variable(v).cardinality) break;
      assignment[v] = 0;
      ++v;
    }
    if (v == n) break;
  }
  return best;
}

TEST(Mpe, SingleNodePicksModalState) {
  BayesianNetwork net;
  net.add_node(Variable::discrete("a", 3));
  net.set_cpd(0, std::make_unique<TabularCpd>(
                     TabularCpd(3, {}, {0.2, 0.5, 0.3})));
  const MpeResult result = most_probable_explanation(net, {});
  EXPECT_EQ(result.states[0], 1u);
  EXPECT_NEAR(result.log_probability, std::log(0.5), 1e-12);
}

TEST(Mpe, ChainJointModeDiffersFromMarginalModes) {
  // Classic example where the MPE differs from per-node marginal argmax:
  // P(a=1)=0.6 but a=1 forces b to split 50/50 while a=0 pins b.
  BayesianNetwork net;
  net.add_node(Variable::discrete("a", 2));
  net.add_node(Variable::discrete("b", 2));
  net.add_edge(0, 1);
  net.set_cpd(0, std::make_unique<TabularCpd>(TabularCpd(2, {}, {0.4, 0.6})));
  net.set_cpd(1, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.95, 0.05, 0.5, 0.5})));
  const MpeResult result = most_probable_explanation(net, {});
  // Joint probabilities: (0,0)=0.38, (1,0)=(1,1)=0.30 -> MPE = (0,0),
  // although argmax P(a) = 1.
  EXPECT_EQ(result.states[0], 0u);
  EXPECT_EQ(result.states[1], 0u);
  EXPECT_NEAR(result.log_probability, std::log(0.38), 1e-12);
}

TEST(Mpe, RespectsEvidence) {
  BayesianNetwork net;
  net.add_node(Variable::discrete("a", 2));
  net.add_node(Variable::discrete("b", 2));
  net.add_edge(0, 1);
  net.set_cpd(0, std::make_unique<TabularCpd>(TabularCpd(2, {}, {0.9, 0.1})));
  net.set_cpd(1, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.9, 0.1, 0.1, 0.9})));
  // Observing b=1 flips the best explanation of a.
  const MpeResult result = most_probable_explanation(net, {{1, 1}});
  EXPECT_EQ(result.states[1], 1u);
  // P(a=0, b=1) = 0.9*0.1 = 0.09; P(a=1, b=1) = 0.1*0.9 = 0.09: tie — both
  // are optimal; accept either but require the optimal log-probability.
  EXPECT_NEAR(result.log_probability, std::log(0.09), 1e-12);
}

class MpeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpeRandom, MatchesBruteForceOracle) {
  const BayesianNetwork net = test_support::random_network(6, GetParam(), 2);
  kertbn::Rng rng(GetParam() + 500);
  DiscreteEvidence evidence;
  const std::size_t e = rng.uniform_index(net.size());
  evidence[e] = rng.uniform_index(net.variable(e).cardinality);

  const MpeResult fast = most_probable_explanation(net, evidence);
  const MpeResult oracle = brute_force_mpe(net, evidence);
  EXPECT_NEAR(fast.log_probability, oracle.log_probability, 1e-9)
      << "seed " << GetParam();
  // The assignment itself must achieve the optimal probability (ties may
  // pick different argmaxes): recompute its joint log-probability.
  std::vector<double> row(net.size());
  for (std::size_t v = 0; v < net.size(); ++v) {
    row[v] = static_cast<double>(fast.states[v]);
  }
  double lp = 0.0;
  std::vector<double> parent_buf;
  for (std::size_t v = 0; v < net.size(); ++v) {
    const auto pars = net.dag().parents(v);
    parent_buf.resize(pars.size());
    for (std::size_t i = 0; i < pars.size(); ++i) {
      parent_buf[i] = row[pars[i]];
    }
    lp += net.cpd(v).log_prob(row[v], parent_buf);
  }
  EXPECT_NEAR(lp, oracle.log_probability, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpeRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Evidence on a node the network does not have, or in a state its node
/// does not have, is a contract failure.
TEST(Mpe, RejectsEvidenceOutsideTheNetwork) {
  BayesianNetwork net;
  net.add_node(Variable::discrete("a", 2));
  net.add_node(Variable::discrete("b", 2));
  net.add_edge(0, 1);
  net.set_cpd(0, std::make_unique<TabularCpd>(TabularCpd(2, {}, {0.4, 0.6})));
  net.set_cpd(1, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.95, 0.05, 0.5, 0.5})));
  EXPECT_DEATH(most_probable_explanation(net, {{5, 0}}), "precondition");
  EXPECT_DEATH(most_probable_explanation(net, {{1, 2}}), "precondition");
}

/// Pins every state and log-probability of the MPE on seeded random
/// networks and on the 3- and 4-bin eDiaMoND KERT-BN, on every tier: the
/// elimination multiplies, maxes and moves values, all exact.
TEST(Mpe, AssignmentsArePinnedOnEveryTier) {
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
      kertbn::Rng rng(2000 + k);
      // No evidence, every state of the last node (D in eDiaMoND), then
      // two random nodes.
      std::vector<DiscreteEvidence> evidence(1);
      const std::size_t last = net.size() - 1;
      for (std::size_t s = 0; s < net.variable(last).cardinality; ++s) {
        evidence.push_back({{last, s}});
      }
      DiscreteEvidence pair;
      for (std::size_t v : rng.permutation(net.size())) {
        if (pair.size() == 2) break;
        pair[v] = rng.uniform_index(net.variable(v).cardinality);
      }
      evidence.push_back(pair);
      for (const DiscreteEvidence& ev : evidence) {
        const MpeResult r = most_probable_explanation(net, ev);
        for (std::size_t s : r.states) {
          h = fnv1a_of(static_cast<std::uint64_t>(s), h);
        }
        h = fnv1a_of(r.log_probability, h);
      }
    }
    EXPECT_EQ(h, 0xb2b56af29f45b7d0ull)
        << simd::to_string(tier) << std::hex << " digest 0x" << h;
  }
}

}  // namespace
}  // namespace kertbn::bn
