/// Cross-engine consistency sweep: the exact inference engines in the
/// library — variable elimination, junction tree, relevance-pruned VE —
/// must agree to 1e-9 on the same posteriors of the same discrete KERT-BN,
/// across seeds and evidence patterns, and the MPE assignment must beat
/// its one-variable perturbations.

#include <gtest/gtest.h>

#include "bn/discrete_inference.hpp"
#include "bn/junction_tree.hpp"
#include "bn/relevance.hpp"
#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "sosim/synthetic.hpp"

namespace kertbn {
namespace {

struct Engines {
  bn::BayesianNetwork net;

  explicit Engines(std::uint64_t seed) {
    Rng rng(seed);
    sim::SyntheticEnvironment env = sim::make_random_environment(6, rng);
    const bn::Dataset train = env.generate(300, rng);
    const core::DatasetDiscretizer disc(train, 3);
    net = core::construct_kert_discrete(env.workflow(), env.sharing(), disc,
                                        disc.discretize(train))
              .net;
  }
};

class EngineConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineConsistency, ExactEnginesAgreeEverywhere) {
  Engines fixture(GetParam());
  const auto& net = fixture.net;
  Rng rng(GetParam() * 13 + 7);

  // Evidence on one random service plus the response node.
  const std::size_t e_service = rng.uniform_index(net.size() - 1);
  const std::map<std::size_t, std::size_t> evidence{
      {e_service, rng.uniform_index(3)},
      {net.size() - 1, rng.uniform_index(3)}};
  const bn::DiscreteEvidence ve_evidence(evidence.begin(), evidence.end());

  const bn::VariableElimination ve(net);
  bn::JunctionTree jt(net);
  jt.calibrate(evidence);

  for (std::size_t v = 0; v < net.size(); ++v) {
    if (evidence.contains(v)) continue;
    const auto a = ve.posterior(v, ve_evidence);
    const auto b = jt.posterior(v);
    const auto c = bn::pruned_posterior(net, v, evidence);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_NEAR(a[s], b[s], 1e-9) << "jt node " << v;
      EXPECT_NEAR(a[s], c[s], 1e-9) << "pruned node " << v;
    }
  }
}

TEST_P(EngineConsistency, MpeAssignmentHasMaximalProbabilityAmongEngines) {
  Engines fixture(GetParam());
  const auto& net = fixture.net;
  const bn::DiscreteEvidence evidence{{net.size() - 1, 2}};
  const bn::MpeResult mpe = bn::most_probable_explanation(net, evidence);

  // The MPE joint probability must dominate a handful of perturbed
  // assignments (flip one variable at a time).
  std::vector<double> row(net.size());
  for (std::size_t v = 0; v < net.size(); ++v) {
    row[v] = static_cast<double>(mpe.states[v]);
  }
  auto joint_lp = [&net](const std::vector<double>& r) {
    double lp = 0.0;
    std::vector<double> parent_buf;
    for (std::size_t v = 0; v < net.size(); ++v) {
      const auto pars = net.dag().parents(v);
      parent_buf.resize(pars.size());
      for (std::size_t i = 0; i < pars.size(); ++i) {
        parent_buf[i] = r[pars[i]];
      }
      lp += net.cpd(v).log_prob(r[v], parent_buf);
    }
    return lp;
  };
  const double best = joint_lp(row);
  EXPECT_NEAR(best, mpe.log_probability, 1e-9);
  for (std::size_t v = 0; v + 1 < net.size(); ++v) {
    for (std::size_t s = 0; s < 3; ++s) {
      if (s == mpe.states[v]) continue;
      std::vector<double> perturbed = row;
      perturbed[v] = static_cast<double>(s);
      EXPECT_LE(joint_lp(perturbed), best + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConsistency,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace kertbn
