#include "bn/junction_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "bn/discrete_inference.hpp"
#include "bn/factor.hpp"
#include "bn/learning.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "sosim/synthetic.hpp"
#include "support/networks.hpp"
#include "support/simd_tiers.hpp"

namespace kertbn::bn {
namespace {

using test_support::ediamond_kert;
using test_support::random_network;

/// The sprinkler network (same parameterization as the VE tests).
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
  net.set_cpd(w, std::make_unique<TabularCpd>(TabularCpd(
                     2, {2, 2},
                     {1.0, 0.0, 0.1, 0.9, 0.1, 0.9, 0.01, 0.99})));
  return net;
}

TEST(JunctionTree, SprinklerPriorMarginalsMatchVe) {
  const BayesianNetwork net = sprinkler();
  JunctionTree jt(net);
  const VariableElimination ve(net);
  for (std::size_t v = 0; v < net.size(); ++v) {
    const auto jt_post = jt.posterior(v);
    const auto ve_post = ve.posterior(v, {});
    ASSERT_EQ(jt_post.size(), ve_post.size());
    for (std::size_t s = 0; s < jt_post.size(); ++s) {
      EXPECT_NEAR(jt_post[s], ve_post[s], 1e-12);
    }
  }
}

TEST(JunctionTree, SprinklerPosteriorWithEvidence) {
  const BayesianNetwork net = sprinkler();
  JunctionTree jt(net);
  jt.calibrate({{3, 1}});  // wet = true
  EXPECT_NEAR(jt.posterior(1)[1], 0.4298, 1e-3);
  EXPECT_NEAR(jt.posterior(2)[1], 0.7079, 1e-3);
}

TEST(JunctionTree, EvidenceProbabilityMatchesVe) {
  const BayesianNetwork net = sprinkler();
  const VariableElimination ve(net);
  JunctionTree jt(net);
  jt.calibrate({{3, 1}});
  EXPECT_NEAR(jt.evidence_probability(), ve.evidence_probability({{3, 1}}),
              1e-12);
  jt.calibrate({{3, 1}, {0, 0}});
  EXPECT_NEAR(jt.evidence_probability(),
              ve.evidence_probability({{3, 1}, {0, 0}}), 1e-12);
}

TEST(JunctionTree, RecalibrationReplacesEvidence) {
  const BayesianNetwork net = sprinkler();
  JunctionTree jt(net);
  jt.calibrate({{3, 1}});
  const double with_evidence = jt.posterior(2)[1];
  jt.calibrate({});
  EXPECT_NEAR(jt.posterior(2)[1], 0.5, 1e-12);  // prior P(rain=1)
  EXPECT_NE(with_evidence, 0.5);
  EXPECT_DOUBLE_EQ(jt.evidence_probability(), 1.0);
}

class JunctionTreeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JunctionTreeRandom, AgreesWithVariableElimination) {
  const BayesianNetwork net = random_network(9, GetParam());
  kertbn::Rng rng(GetParam() + 1000);
  JunctionTree jt(net);
  const VariableElimination ve(net);

  // Random evidence on two nodes, posterior of every other node.
  const std::size_t e1 = rng.uniform_index(net.size());
  std::size_t e2 = rng.uniform_index(net.size());
  if (e2 == e1) e2 = (e2 + 1) % net.size();
  const std::map<std::size_t, std::size_t> evidence{
      {e1, rng.uniform_index(net.variable(e1).cardinality)},
      {e2, rng.uniform_index(net.variable(e2).cardinality)}};
  jt.calibrate(evidence);
  const DiscreteEvidence ve_evidence(evidence.begin(), evidence.end());

  for (std::size_t v = 0; v < net.size(); ++v) {
    if (evidence.contains(v)) continue;
    const auto a = jt.posterior(v);
    const auto b = ve.posterior(v, ve_evidence);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_NEAR(a[s], b[s], 1e-9) << "node " << v << " seed "
                                    << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JunctionTreeRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(JunctionTree, DisconnectedComponentsSupported) {
  // Two independent pairs: the tree is a forest.
  BayesianNetwork net;
  for (int i = 0; i < 4; ++i) {
    net.add_node(Variable::discrete("v" + std::to_string(i), 2));
  }
  net.add_edge(0, 1);
  net.add_edge(2, 3);
  net.set_cpd(0, std::make_unique<TabularCpd>(TabularCpd(2, {}, {0.3, 0.7})));
  net.set_cpd(1, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.9, 0.1, 0.2, 0.8})));
  net.set_cpd(2, std::make_unique<TabularCpd>(TabularCpd(2, {}, {0.6, 0.4})));
  net.set_cpd(3, std::make_unique<TabularCpd>(
                     TabularCpd(2, {2}, {0.5, 0.5, 0.1, 0.9})));
  JunctionTree jt(net);
  // P(v1=1) = 0.3*0.1 + 0.7*0.8.
  EXPECT_NEAR(jt.posterior(1)[1], 0.59, 1e-12);
  // Cross-component evidence must not leak.
  jt.calibrate({{0, 1}});
  EXPECT_NEAR(jt.posterior(3)[1], 0.4 * 0.9 + 0.6 * 0.5, 1e-12);
  EXPECT_NEAR(jt.posterior(1)[1], 0.8, 1e-12);
}

TEST(JunctionTree, KertBnManyQueriesConsistent) {
  // The motivating use: one calibration, posteriors for every service.
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(42);
  const bn::Dataset train = env.generate(400, rng);
  const core::DatasetDiscretizer disc(train, 3);
  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));

  JunctionTree jt(kert.net);
  jt.calibrate({{6, 2}});  // observed response-time bin
  const VariableElimination ve(kert.net);
  for (std::size_t v = 0; v < 6; ++v) {
    const auto a = jt.posterior(v);
    const auto b = ve.posterior(v, {{6, 2}});
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_NEAR(a[s], b[s], 1e-9);
    }
  }
  EXPECT_GE(jt.clique_count(), 1u);
  // D's family spans all seven variables, so the biggest clique holds 7.
  EXPECT_EQ(jt.max_clique_size(), 7u);
}

/// The legacy clique potential: the unit factor times every family the
/// tree assigned to clique c, in node order, each family copied entry by
/// entry out of its CPT.
Factor legacy_potential(const BayesianNetwork& net, const JunctionTree& jt,
                        std::size_t c) {
  Factor base = Factor::unit();
  for (std::size_t v = 0; v < net.size(); ++v) {
    if (jt.family_clique(v) != c) continue;
    const auto& cpt = static_cast<const TabularCpd&>(net.cpd(v));
    const auto pars = net.dag().parents(v);
    std::vector<std::size_t> scope(pars.begin(), pars.end());
    scope.push_back(v);
    std::vector<std::size_t> cards = cpt.parent_cardinalities();
    cards.push_back(cpt.child_cardinality());
    std::vector<double> values;
    for (std::size_t cfg = 0; cfg < cpt.config_count(); ++cfg) {
      for (std::size_t s = 0; s < cpt.child_cardinality(); ++s) {
        values.push_back(cpt.probability(cfg, s));
      }
    }
    base = base.product(Factor(scope, cards, values));
  }
  return base;
}

/// Index of the first entry whose bits differ, or npos when all match.
std::size_t first_bit_difference(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return i;
    }
  }
  return std::string::npos;
}


/// Clique potentials are built on the flat kernels from the CPT tables; the
/// scope, the multiplies and so every bit must equal the legacy Factor
/// fold, on every tier the host runs.
TEST(JunctionTree, CliquePotentialsEqualLegacyFoldOnEveryTier) {
  test_support::TierGuard guard;
  std::vector<BayesianNetwork> nets;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    nets.push_back(random_network(14, seed));
  }
  nets.push_back(ediamond_kert(3));
  nets.push_back(ediamond_kert(4));
  for (simd::Tier tier : test_support::runnable_tiers()) {
    simd::set_active_tier(tier);
    std::size_t multi_clique = 0;
    std::size_t familyless = 0;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      const JunctionTree jt(nets[k]);
      if (jt.clique_count() > 1) ++multi_clique;
      for (std::size_t c = 0; c < jt.clique_count(); ++c) {
        const FlatFactor& got = jt.clique_potential(c);
        const Factor want = legacy_potential(nets[k], jt, c);
        if (want.scope().empty()) ++familyless;
        EXPECT_EQ(got.scope, want.scope()) << "net " << k << " clique " << c;
        EXPECT_EQ(got.cards, want.cardinalities());
        EXPECT_EQ(first_bit_difference(got.values, want.values()),
                  std::string::npos)
            << "net " << k << " clique " << c << " tier "
            << static_cast<int>(tier);
      }
    }
    EXPECT_GE(multi_clique, 10u);
    EXPECT_GT(familyless, 0u) << "no clique without a family was covered";
  }
}

/// On a one-clique network, P(e) with every node observed is one entry of
/// the clique's potential: the read slices the base down to that entry and
/// adds it to +0. The eDiaMoND KERT-BN is one clique (D's family holds
/// every node).
TEST(JunctionTree, FullyObservedEvidenceReadsOneLegacyPotentialEntry) {
  test_support::TierGuard guard;
  for (std::size_t bins : {3u, 4u}) {
    const BayesianNetwork net = ediamond_kert(bins);
    JunctionTree jt(net);
    ASSERT_EQ(jt.clique_count(), 1u);
    const Factor want = legacy_potential(net, jt, 0);
    const std::vector<std::size_t>& scope = want.scope();
    for (simd::Tier tier : test_support::runnable_tiers()) {
      simd::set_active_tier(tier);
      std::size_t mismatches = 0;
      SortedEvidence ev(net.size());
      for (std::size_t i = 0; i < want.values().size(); ++i) {
        // Entry i in the potential's scope order, as sorted evidence.
        std::size_t rest = i;
        for (std::size_t d = scope.size(); d-- > 0;) {
          ev[scope[d]] = {scope[d], rest % want.cardinalities()[d]};
          rest /= want.cardinalities()[d];
        }
        jt.calibrate_sorted(ev);
        if (std::bit_cast<std::uint64_t>(jt.evidence_probability()) !=
            std::bit_cast<std::uint64_t>(want.values()[i])) {
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << bins << " bins, tier " << static_cast<int>(tier);
    }
  }
}

TEST(JunctionTreeIncremental, ConstructionDefersCalibration) {
  const BayesianNetwork net = sprinkler();
  JunctionTree jt(net);
  EXPECT_EQ(jt.stats().calibrations, 0u);
  // A read triggers the cached no-evidence calibration lazily and once.
  const auto p = jt.posterior(3);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(jt.evidence_probability(), 1.0);
  EXPECT_EQ(jt.stats().calibrations, 0u);  // no explicit calibrate yet
}

TEST(JunctionTreeIncremental, CalibrateSortedMatchesMapOverload) {
  const BayesianNetwork net = sprinkler();
  JunctionTree a(net);
  JunctionTree b(net);
  a.calibrate({{1, 1}, {2, 0}});
  b.calibrate_sorted({{1, 1}, {2, 0}});
  EXPECT_EQ(a.posterior(0), b.posterior(0));
  EXPECT_EQ(a.posterior(3), b.posterior(3));
  EXPECT_EQ(a.evidence_probability(), b.evidence_probability());
}

TEST(JunctionTreeIncremental, WarmDoesNotChangeAnswers) {
  const BayesianNetwork net = sprinkler();
  JunctionTree warmed(net);
  warmed.warm();
  JunctionTree cold(net);
  for (std::size_t v = 0; v < 4; ++v) {
    EXPECT_EQ(warmed.posterior(v), cold.posterior(v));
  }
  EXPECT_EQ(warmed.evidence_probability(), cold.evidence_probability());
}

/// Incremental recalibration must be bit-identical to both a full-mode tree
/// and a fresh tree per evidence set, across a seeded evidence sequence.
TEST(JunctionTreeIncremental, BitIdenticalToFullAndFreshAcrossSequence) {
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const BayesianNetwork net = random_network(10, seed);
    JunctionTree inc(net);  // incremental by default
    JunctionTree full(net);
    full.set_incremental(false);
    kertbn::Rng rng(seed * 7 + 1);
    for (int step = 0; step < 12; ++step) {
      SortedEvidence ev;
      const std::size_t m = rng.uniform_index(3);  // 0..2 evidence vars
      std::vector<std::size_t> nodes = rng.permutation(net.size());
      nodes.resize(m);
      std::sort(nodes.begin(), nodes.end());
      for (std::size_t v : nodes) {
        ev.emplace_back(v, rng.uniform_index(net.variable(v).cardinality));
      }
      inc.calibrate_sorted(ev);
      full.calibrate_sorted(ev);
      JunctionTree fresh(net);
      fresh.calibrate_sorted(ev);
      EXPECT_EQ(inc.evidence_probability(), full.evidence_probability());
      EXPECT_EQ(inc.evidence_probability(), fresh.evidence_probability());
      for (std::size_t v = 0; v < net.size(); ++v) {
        if (std::binary_search(nodes.begin(), nodes.end(), v)) continue;
        const auto pi = inc.posterior(v);
        const auto pf = full.posterior(v);
        const auto pn = fresh.posterior(v);
        EXPECT_EQ(pi, pf) << "seed " << seed << " step " << step
                          << " node " << v;
        EXPECT_EQ(pi, pn) << "seed " << seed << " step " << step
                          << " node " << v;
      }
    }
    EXPECT_EQ(inc.stats().full_calibrations, 0u);
    EXPECT_EQ(full.stats().full_calibrations, full.stats().calibrations);
  }
}

TEST(JunctionTreeIncremental, ReusesMessagesOutsideDirtyRegion) {
  // A chain keeps cliques far from the evidence clean.
  BayesianNetwork net = random_network(12, 77);
  JunctionTree jt(net);
  jt.warm();
  jt.calibrate({{0, 0}});
  // Touch every posterior so all messages toward every clique are pulled.
  for (std::size_t v = 1; v < net.size(); ++v) jt.posterior(v);
  const auto& s = jt.stats();
  EXPECT_EQ(s.calibrations, 1u);
  EXPECT_EQ(s.full_calibrations, 0u);
  EXPECT_GT(s.messages_reused, 0u)
      << "single-variable evidence should leave clean-side messages reusable";
}

}  // namespace
}  // namespace kertbn::bn
