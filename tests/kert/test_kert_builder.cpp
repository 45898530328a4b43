#include "kert/kert_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "kert/response_tape.hpp"
#include "sosim/scenario.hpp"
#include "sosim/synthetic.hpp"
#include "support/simd_tiers.hpp"
#include "workflow/ediamond.hpp"

namespace kertbn::core {
namespace {

using S = wf::EdiamondServices;

TEST(KertStructure, EdiamondMatchesFigure2) {
  const wf::Workflow w = wf::make_ediamond_workflow();
  const graph::Dag dag = build_kert_structure(w, {});
  EXPECT_EQ(dag.size(), 7u);
  // Workflow edges.
  EXPECT_TRUE(dag.has_edge(S::kImageList, S::kWorkList));
  EXPECT_TRUE(dag.has_edge(S::kWorkList, S::kImageLocatorLocal));
  EXPECT_TRUE(dag.has_edge(S::kWorkList, S::kImageLocatorRemote));
  EXPECT_TRUE(dag.has_edge(S::kImageLocatorLocal, S::kOgsaDaiLocal));
  EXPECT_TRUE(dag.has_edge(S::kImageLocatorRemote, S::kOgsaDaiRemote));
  // D depends on everything.
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_TRUE(dag.has_edge(s, 6));
  }
  EXPECT_EQ(dag.label(6), "D");
}

TEST(KertStructure, ResourceSharingAddsEdges) {
  const wf::Workflow w = wf::make_ediamond_workflow();
  wf::ResourceSharing sharing;
  sharing.groups.push_back({"host", {S::kImageList, S::kOgsaDaiLocal}});
  const graph::Dag with = build_kert_structure(w, sharing);
  const graph::Dag without = build_kert_structure(w, {});
  EXPECT_EQ(with.edge_count(), without.edge_count() + 1);
  EXPECT_TRUE(with.has_edge(S::kImageList, S::kOgsaDaiLocal));
}

TEST(KertStructure, ResourceEdgeSkippedIfItWouldCycle) {
  const wf::Workflow w = wf::make_ediamond_workflow();
  // work_list(1) already reaches ogsa_dai_local(4): a (4,1) pair would be
  // oriented 1->4... use a pair that forces high->low: (ogsa_dai_local,
  // image_list) orients 0->4 — fine. Instead use the existing workflow edge
  // pair: (image_list, work_list) already has 0->1; no duplicate added.
  wf::ResourceSharing sharing;
  sharing.groups.push_back({"host", {S::kImageList, S::kWorkList}});
  const graph::Dag with = build_kert_structure(w, sharing);
  const graph::Dag without = build_kert_structure(w, {});
  EXPECT_EQ(with.edge_count(), without.edge_count());
}

TEST(KertStructure, CanDisableResourceKnowledge) {
  const wf::Workflow w = wf::make_ediamond_workflow();
  wf::ResourceSharing sharing;
  sharing.groups.push_back({"host", {S::kImageList, S::kOgsaDaiLocal}});
  KertStructureOptions opts;
  opts.use_resource_sharing = false;
  const graph::Dag dag = build_kert_structure(w, sharing, opts);
  EXPECT_FALSE(dag.has_edge(S::kImageList, S::kOgsaDaiLocal));
}

TEST(ResponseFn, EvaluatesPaperFormula) {
  const wf::Workflow w = wf::make_ediamond_workflow();
  const bn::DeterministicFn fn = make_response_fn(w);
  EXPECT_EQ(fn.arity, 6u);
  const double x[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  EXPECT_NEAR(fn.fn(x), 0.3 + std::max(0.8, 1.0), 1e-12);
  EXPECT_NE(fn.expression.find("max("), std::string::npos);
}

TEST(DeterministicCpt, RowsPutMassOnWorkflowBin) {
  // Tiny 2-service sequence workflow with 3 bins for tractable checking.
  wf::Workflow w({"a", "b"},
                 wf::Node::sequence({wf::Node::activity(0),
                                     wf::Node::activity(1)}));
  bn::Dataset data({"a", "b", "D"});
  kertbn::Rng rng(1);
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(0.1, 0.4);
    const double b = rng.uniform(0.2, 0.6);
    data.add_row(std::vector<double>{a, b, a + b});
  }
  const DatasetDiscretizer disc(data, 3);
  const double leak = 0.06;
  // samples_per_config = 1: evaluate f at bin centers only so the peak
  // location is fully predictable.
  const bn::TabularCpd cpt = make_deterministic_cpt(w, disc, leak, 1);
  EXPECT_EQ(cpt.child_cardinality(), 3u);
  EXPECT_EQ(cpt.config_count(), 9u);
  for (std::size_t cfg = 0; cfg < 9; ++cfg) {
    // Exactly one state holds 1-l (+ its leak share); the others hold l/3.
    int peaked = 0;
    for (std::size_t s = 0; s < 3; ++s) {
      const double p = cpt.probability(cfg, s);
      if (std::abs(p - (1.0 - leak + leak / 3.0)) < 1e-9) ++peaked;
      else EXPECT_NEAR(p, leak / 3.0, 1e-9);
    }
    EXPECT_EQ(peaked, 1);
  }
  // Spot-check the peak location: config (a-bin 2, b-bin 2) must map to
  // bin(center_a2 + center_b2).
  const double expect_d =
      disc.column(0).center_of(2) + disc.column(1).center_of(2);
  const std::size_t d_bin = disc.column(2).bin_of(expect_d);
  const double parents[] = {2.0, 2.0};
  const std::size_t cfg = cpt.config_index(parents);
  EXPECT_NEAR(cpt.probability(cfg, d_bin), 1.0 - leak + leak / 3.0, 1e-9);

  // Integrated variant: rows remain normalized distributions whose mass
  // concentrates on bins reachable from the config's intervals.
  const bn::TabularCpd integrated = make_deterministic_cpt(w, disc, leak);
  for (std::size_t c = 0; c < 9; ++c) {
    double total = 0.0;
    for (std::size_t s = 0; s < 3; ++s) {
      total += integrated.probability(c, s);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

/// FNV-1a over the bit patterns of every entry of \p cpt, folded into \p h.
std::uint64_t fnv1a_bits(const bn::TabularCpd& cpt, std::uint64_t h) {
  for (std::size_t cfg = 0; cfg < cpt.config_count(); ++cfg) {
    for (std::size_t s = 0; s < cpt.child_cardinality(); ++s) {
      const auto bits = std::bit_cast<std::uint64_t>(cpt.probability(cfg, s));
      for (int b = 0; b < 8; ++b) {
        h ^= (bits >> (8 * b)) & 0xFFu;
        h *= 0x100000001B3ULL;
      }
    }
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

void count_kinds(const wf::Expr& e, std::size_t (&kinds)[6]) {
  ++kinds[static_cast<std::size_t>(e.kind())];
  for (const auto& c : e.children()) count_kinds(*c, kinds);
}

/// Hashes of eDiaMoND tables at 2-5 bins from six 36-row windows (the
/// benchmark's window) over every sample count and leak combination.
std::array<std::uint64_t, 4> ediamond_table_hashes() {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  std::vector<bn::Dataset> windows;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    windows.push_back(env.generate(36, rng));
  }
  std::array<std::uint64_t, 4> hashes{};
  for (std::size_t bins = 2; bins <= 5; ++bins) {
    std::uint64_t h = kFnvOffset;
    for (const bn::Dataset& window : windows) {
      const DatasetDiscretizer disc(window, bins);
      for (std::size_t samples : {64u, 1u, 7u}) {
        for (double leak : {0.02, 0.1}) {
          h = fnv1a_bits(
              make_deterministic_cpt(env.workflow(), disc, leak, samples), h);
        }
      }
    }
    hashes[bins - 2] = h;
  }
  return hashes;
}

// The CPT's sampling stream (seed, draw order) and its arithmetic are part
// of its output: these hashes pin every entry bit for bit, so any rewrite
// of the materialization must reproduce them exactly — on every dispatch
// tier, since the draws come from per-tier lane kernels. The eDiaMoND
// configuration counts 64, 729, 4096 and 15625 include blocks of lanes
// that 8 does not divide.
TEST(DeterministicCpt, TablesArePinned) {
  test_support::TierGuard guard;
  const std::array<std::uint64_t, 4> ediamond_expected = {
      0xBCBB5242BE379518ULL, 0x7FFBF0A226D22887ULL, 0x28F85598017869CAULL,
      0x024179B9D428B4F8ULL};

  // Generated workflows of 3-7 services: together they hold every operator
  // the Cardoso reduction emits (sum, max, blend, scale).
  sim::ScenarioFamilyOptions opts;
  opts.min_services = 3;
  opts.max_services = 7;
  const sim::ScenarioFamily family(20261018, opts);
  std::vector<sim::Scenario> scenarios;
  std::vector<bn::Dataset> scenario_windows;
  std::size_t kinds[6] = {};
  for (std::size_t i = 0; i < 40; ++i) {
    scenarios.push_back(family.make(i));
    count_kinds(*scenarios.back().workflow.response_time_expr(), kinds);
    sim::SyntheticEnvironment senv = scenarios.back().make_environment();
    Rng rng(scenarios.back().seed);
    scenario_windows.push_back(senv.generate(36, rng));
  }
  EXPECT_EQ(kinds[static_cast<std::size_t>(wf::ExprKind::kSum)], 47u);
  EXPECT_EQ(kinds[static_cast<std::size_t>(wf::ExprKind::kMax)], 25u);
  EXPECT_EQ(kinds[static_cast<std::size_t>(wf::ExprKind::kBlend)], 26u);
  EXPECT_EQ(kinds[static_cast<std::size_t>(wf::ExprKind::kScale)], 14u);
  const std::uint64_t scenario_expected[] = {0x4DAA0B112E3FDCE1ULL,
                                             0xC9C4B529D8AAE647ULL};

  for (simd::Tier tier : test_support::runnable_tiers()) {
    simd::set_active_tier(tier);
    SCOPED_TRACE(simd::to_string(tier));
    const std::array<std::uint64_t, 4> ediamond = ediamond_table_hashes();
    for (std::size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(ediamond[b], ediamond_expected[b])
          << "bins " << b + 2 << std::hex << " hash 0x" << ediamond[b];
    }
    std::uint64_t h[2] = {kFnvOffset, kFnvOffset};
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      for (std::size_t bins = 3; bins <= 4; ++bins) {
        const DatasetDiscretizer disc(scenario_windows[i], bins);
        h[bins - 3] = fnv1a_bits(
            make_deterministic_cpt(scenarios[i].workflow, disc, 0.02),
            h[bins - 3]);
      }
    }
    for (std::size_t b = 0; b < 2; ++b) {
      EXPECT_EQ(h[b], scenario_expected[b])
          << "bins " << b + 3 << std::hex << " hash 0x" << h[b];
    }
  }
}

// The tape's contract: every element is Expr::evaluate at that point, bit
// for bit, on every dispatch tier. Generated workflows bring every
// operator; 67 elements leave a remainder at every vector width.
TEST(ResponseTape, EveryElementMatchesExprEvaluateOnEveryTier) {
  test_support::TierGuard guard;
  sim::ScenarioFamilyOptions opts;
  opts.min_services = 3;
  opts.max_services = 7;
  const sim::ScenarioFamily family(20261018, opts);
  constexpr std::size_t width = 67;
  Rng rng(77);
  for (std::size_t s = 0; s < 40; ++s) {
    const sim::Scenario scenario = family.make(s);
    const wf::Expr::Ptr expr = scenario.workflow.response_time_expr();
    const std::size_t n = scenario.workflow.service_count();
    std::vector<double> x(n * width);
    for (double& v : x) v = rng.uniform(0.01, 3.0);
    std::vector<double> want(width);
    std::vector<double> point(n);
    for (std::size_t k = 0; k < width; ++k) {
      for (std::size_t i = 0; i < n; ++i) point[i] = x[i * width + k];
      want[k] = expr->evaluate(point);
    }
    for (simd::Tier tier : test_support::runnable_tiers()) {
      simd::set_active_tier(tier);
      ResponseTape tape(*expr, n, width);
      for (std::size_t i = 0; i < n; ++i) {
        std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(i * width), width,
                    tape.service_row(i));
      }
      const double* f = tape.run();
      for (std::size_t k = 0; k < width; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(f[k]),
                  std::bit_cast<std::uint64_t>(want[k]))
            << simd::to_string(tier) << " scenario " << s << " element " << k;
      }
    }
  }
}

TEST(KertConstructContinuous, CompleteAndAccurate) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(2);
  const bn::Dataset train = env.generate(200, rng);
  const KertResult result =
      construct_kert_continuous(env.workflow(), env.sharing(), train);
  EXPECT_TRUE(result.net.is_complete());
  EXPECT_EQ(result.net.size(), 7u);
  EXPECT_GT(result.report.total_seconds, 0.0);
  EXPECT_GE(result.report.parameter_seconds, 0.0);

  // Knowledge-given D CPD predicts response time from service times.
  const bn::Dataset test = env.generate(100, rng);
  const auto& d_cpd = result.net.cpd(6);
  for (std::size_t r = 0; r < 20; ++r) {
    std::vector<double> x(6);
    for (int s = 0; s < 6; ++s) x[s] = test.value(r, s);
    EXPECT_NEAR(d_cpd.mean(x), test.value(r, 6), 0.05);
  }
}

TEST(KertConstructContinuous, DecentralizedModeEquivalent) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(3);
  const bn::Dataset train = env.generate(150, rng);
  const KertResult central = construct_kert_continuous(
      env.workflow(), env.sharing(), train, LearningMode::kCentralized);
  const KertResult decentral = construct_kert_continuous(
      env.workflow(), env.sharing(), train, LearningMode::kDecentralized);
  const bn::Dataset test = env.generate(80, rng);
  EXPECT_NEAR(central.net.log_likelihood(test),
              decentral.net.log_likelihood(test), 1e-6);
  EXPECT_LE(decentral.report.decentralized_seconds,
            decentral.report.centralized_equivalent_seconds + 1e-12);
}

TEST(KertConstructDiscrete, CompleteWithDeterministicCpt) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(4);
  const bn::Dataset train = env.generate(400, rng);
  const DatasetDiscretizer disc(train, 3);
  const bn::Dataset discrete = disc.discretize(train);
  const KertResult result = construct_kert_discrete(
      env.workflow(), env.sharing(), disc, discrete);
  EXPECT_TRUE(result.net.is_complete());
  for (std::size_t v = 0; v < 7; ++v) {
    EXPECT_TRUE(result.net.variable(v).is_discrete());
  }
  // Discrete KERT must assign decent likelihood to held-out data.
  const bn::Dataset test = disc.discretize(env.generate(100, rng));
  EXPECT_TRUE(std::isfinite(result.net.log_likelihood(test)));
}

TEST(KertSkeleton, LearnableNodesStartUnset) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  const bn::BayesianNetwork net =
      build_kert_skeleton_continuous(env.workflow(), env.sharing());
  for (std::size_t s = 0; s < 6; ++s) {
    EXPECT_FALSE(net.has_cpd(s));
  }
  EXPECT_TRUE(net.has_cpd(6));
  EXPECT_FALSE(net.is_complete());
}

TEST(KertStructure, ScalesToLargeRandomWorkflows) {
  kertbn::Rng rng(5);
  sim::SyntheticEnvironment env = sim::make_random_environment(60, rng);
  const graph::Dag dag = build_kert_structure(env.workflow(), env.sharing());
  EXPECT_EQ(dag.size(), 61u);
  EXPECT_EQ(dag.in_degree(60), 60u);  // D's parents
  EXPECT_EQ(dag.topological_order().size(), 61u);
}

}  // namespace
}  // namespace kertbn::core
