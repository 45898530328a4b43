/// \file test_simd_equivalence.cpp
/// End-to-end per-tier equivalence for the SIMD inference kernels: the
/// same queries served at every dispatch tier the host supports must agree
/// bit for bit with the scalar reference. Also pins the invariant the
/// serving path relies on: incremental and full recalibration stay
/// bit-identical to each other on EVERY tier (both run through the same
/// kernel path).

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "bn/junction_tree.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "kert/query_engine.hpp"
#include "sosim/synthetic.hpp"
#include "support/networks.hpp"
#include "support/simd_tiers.hpp"

namespace kertbn::core {
namespace {

using test_support::runnable_tiers;
using test_support::random_network;
using test_support::TierGuard;

/// The eDiaMoND KERT-BN served at every tier: posteriors, exceedance, and
/// evidence probability against the scalar reference.
TEST(SimdEquivalence, EdiamondQueryEngineAgreesAcrossTiers) {
  TierGuard guard;
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(20070402);
  const bn::Dataset train = env.generate(240, rng);
  const DatasetDiscretizer disc(train, 3);
  const auto kert = construct_kert_discrete(env.workflow(), env.sharing(),
                                            disc, disc.discretize(train));
  SnapshotSlot slot;
  slot.publish(make_model_snapshot(1, 0.0, kert.net, disc));

  const std::size_t d_node = kert.net.size() - 1;
  QueryBatch batch;
  for (std::size_t v = 0; v + 1 < kert.net.size(); ++v) {
    Query q;
    q.kind = QueryKind::kPosterior;
    q.target = v;
    q.evidence = {{d_node, v % 3}};
    batch.push_back(std::move(q));
  }
  Query exceed;
  exceed.kind = QueryKind::kExceedance;
  exceed.target = d_node;
  exceed.evidence = {{0, 2}};
  exceed.threshold = disc.column(d_node).center_of(1);
  batch.push_back(exceed);
  Query pe;
  pe.kind = QueryKind::kEvidenceProbability;
  pe.evidence = {{0, 1}, {d_node, 2}};
  batch.push_back(pe);

  simd::set_active_tier(simd::Tier::kScalar);
  QueryEngine::Config cfg;
  cfg.slot = &slot;
  QueryEngine scalar_engine(cfg);
  const auto reference = scalar_engine.post(batch);

  for (simd::Tier tier : runnable_tiers()) {
    simd::set_active_tier(tier);
    QueryEngine engine(cfg);
    const auto answers = engine.post(batch);
    ASSERT_EQ(answers.size(), reference.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ASSERT_EQ(reference[i].posterior, answers[i].posterior)
          << simd::to_string(tier) << " query " << i;
      ASSERT_EQ(reference[i].exceedance, answers[i].exceedance)
          << simd::to_string(tier) << " query " << i;
      ASSERT_EQ(reference[i].evidence_probability,
                answers[i].evidence_probability)
          << simd::to_string(tier) << " query " << i;
    }
  }
}

/// Generated-scenario sweep: random networks served through a raw
/// junction tree, every node's posterior at every tier against scalar.
TEST(SimdEquivalence, RandomNetworkJunctionTreesAgreeAcrossTiers) {
  TierGuard guard;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const bn::BayesianNetwork net = random_network(14, seed);
    const std::size_t e_node = net.size() - 1;
    const bn::SortedEvidence ev = {{e_node, 0}};

    simd::set_active_tier(simd::Tier::kScalar);
    bn::JunctionTree scalar_tree(net);
    scalar_tree.calibrate_sorted(ev);
    std::vector<std::vector<double>> reference;
    for (std::size_t v = 0; v + 1 < net.size(); ++v) {
      reference.push_back(scalar_tree.posterior(v));
    }

    for (simd::Tier tier : runnable_tiers()) {
      simd::set_active_tier(tier);
      bn::JunctionTree tree(net);
      tree.calibrate_sorted(ev);
      for (std::size_t v = 0; v + 1 < net.size(); ++v) {
        ASSERT_EQ(reference[v], tree.posterior(v))
            << simd::to_string(tier) << " seed " << seed << " node " << v;
      }
    }
  }
}

/// Incremental and full recalibration share one kernel path, so their
/// answers must stay bit-identical to each other on EVERY tier — the
/// invariant the serving router and the recalibration ablation assert.
TEST(SimdEquivalence, IncrementalMatchesFullBitwiseOnEveryTier) {
  TierGuard guard;
  const bn::BayesianNetwork net = random_network(16, 77);
  std::size_t e_node = 0;
  for (std::size_t v = net.size(); v-- > 0;) {
    if (!net.dag().parents(v).empty()) {
      e_node = v;
      break;
    }
  }
  const std::size_t e_card = net.variable(e_node).cardinality;

  for (simd::Tier tier : runnable_tiers()) {
    simd::set_active_tier(tier);
    bn::JunctionTree full(net);
    full.set_incremental(false);
    full.warm();
    bn::JunctionTree inc(net);
    inc.warm();
    for (std::size_t r = 0; r < 12; ++r) {
      full.calibrate_sorted({{e_node, r % e_card}});
      inc.calibrate_sorted({{e_node, r % e_card}});
      for (std::size_t v = 0; v < net.size(); ++v) {
        if (v == e_node) continue;  // posteriors of evidence nodes are banned
        ASSERT_EQ(full.posterior(v), inc.posterior(v))
            << simd::to_string(tier) << " round " << r << " node " << v;
      }
    }
  }
}

}  // namespace
}  // namespace kertbn::core
