#include "kert/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "bn/discrete_inference.hpp"
#include "bn/junction_tree.hpp"
#include "bn/relevance.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "kert/kert_builder.hpp"
#include "sosim/synthetic.hpp"
#include "support/networks.hpp"
#include "support/simd_tiers.hpp"

namespace kertbn::core {
namespace {

using test_support::random_network;
using test_support::runnable_tiers;
using test_support::TierGuard;

/// Random sorted evidence over up to \p max_vars nodes, excluding
/// \p exclude (the query target).
bn::SortedEvidence random_evidence(const bn::BayesianNetwork& net,
                                   std::size_t exclude, std::size_t max_vars,
                                   kertbn::Rng& rng) {
  bn::SortedEvidence ev;
  std::vector<std::size_t> nodes = rng.permutation(net.size());
  for (std::size_t v : nodes) {
    if (ev.size() >= max_vars) break;
    if (v == exclude) continue;
    ev.emplace_back(v, rng.uniform_index(net.variable(v).cardinality));
  }
  std::sort(ev.begin(), ev.end());
  return ev;
}

bn::DiscreteEvidence to_map(const bn::SortedEvidence& ev) {
  return bn::DiscreteEvidence(ev.begin(), ev.end());
}

/// The ~200-case property suite: 25 seeds x 8 queries per seed. Every
/// answer must be bit-identical to a fresh JunctionTree (tree route) or to
/// the legacy pruned_posterior (pruned route), and within 1e-9 of variable
/// elimination; the engine's incremental recalibration must agree bitwise
/// with a tree that recalibrates in full, as the e2e benchmark checks it.
TEST(QueryEngineEquivalence, RandomNetworksMatchTreeAndVariableElimination) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const bn::BayesianNetwork net = random_network(12, seed);
    SnapshotSlot slot;
    slot.publish(make_model_snapshot(seed, 0.0, net, std::nullopt));

    QueryEngine::Config cfg;
    cfg.slot = &slot;
    QueryEngine engine(cfg);
    bn::JunctionTree full(net);
    full.set_incremental(false);

    kertbn::Rng rng(seed * 13 + 5);
    QueryBatch batch;
    for (int i = 0; i < 8; ++i) {
      Query q;
      q.kind = static_cast<QueryKind>(i % 4);
      q.target = rng.uniform_index(net.size());
      q.evidence = random_evidence(net, q.target, 1 + rng.uniform_index(2),
                                   rng);
      q.threshold = 0.5;  // state-index units (no discretizer)
      batch.push_back(std::move(q));
    }

    const auto answers = engine.post(batch);
    ASSERT_EQ(answers.size(), batch.size());

    const bn::VariableElimination ve(net);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      const QueryAnswer& a = answers[i];
      EXPECT_EQ(a.snapshot_version, seed);

      // Incremental and full recalibration agree bitwise.
      full.calibrate_sorted(q.evidence);
      if (q.kind == QueryKind::kEvidenceProbability) {
        EXPECT_EQ(a.evidence_probability, full.evidence_probability());
      } else if (a.route == QueryRoute::kCalibratedTree) {
        EXPECT_EQ(a.posterior, full.posterior(q.target));
      }

      if (q.kind == QueryKind::kEvidenceProbability) {
        bn::JunctionTree fresh(net);
        fresh.calibrate_sorted(q.evidence);
        EXPECT_EQ(a.evidence_probability, fresh.evidence_probability());
        EXPECT_NEAR(a.evidence_probability,
                    ve.evidence_probability(to_map(q.evidence)), 1e-9);
        continue;
      }

      // Posterior-bearing kinds: exact vs the engine's own route's legacy
      // twin, near vs variable elimination.
      if (a.route == QueryRoute::kPrunedElimination) {
        EXPECT_EQ(a.posterior,
                  bn::pruned_posterior(net, q.target, to_map(q.evidence)));
      } else {
        bn::JunctionTree fresh(net);
        fresh.calibrate_sorted(q.evidence);
        EXPECT_EQ(a.posterior, fresh.posterior(q.target));
      }
      const auto ve_post = ve.posterior(q.target, to_map(q.evidence));
      ASSERT_EQ(a.posterior.size(), ve_post.size());
      for (std::size_t s = 0; s < ve_post.size(); ++s) {
        EXPECT_NEAR(a.posterior[s], ve_post[s], 1e-9)
            << "seed " << seed << " query " << i << " state " << s;
      }

      if (q.kind == QueryKind::kExceedance) {
        EXPECT_EQ(a.exceedance,
                  summarize_discrete_posterior(a.posterior, nullptr)
                      .exceedance(q.threshold));
      }
      if (q.kind == QueryKind::kWhatIf) {
        // Baseline is the warm no-evidence marginal of the target.
        bn::JunctionTree prior(net);
        const auto base = summarize_discrete_posterior(
            prior.posterior(q.target), nullptr);
        EXPECT_EQ(a.baseline.mean, base.mean);
        EXPECT_EQ(a.baseline.stddev, base.stddev);
      }
    }
  }
}

TEST(QueryEngineEquivalence, PooledBatchesMatchSerialBitwise) {
  const bn::BayesianNetwork net = random_network(12, 99);
  SnapshotSlot slot;
  slot.publish(make_model_snapshot(7, 0.0, net, std::nullopt));

  ThreadPool pool(4);
  QueryEngine::Config serial_cfg;
  serial_cfg.slot = &slot;
  QueryEngine serial(serial_cfg);
  QueryEngine::Config pooled_cfg = serial_cfg;
  pooled_cfg.pool = &pool;
  QueryEngine pooled(pooled_cfg);

  kertbn::Rng rng(123);
  QueryBatch batch;
  for (int i = 0; i < 64; ++i) {
    Query q;
    q.kind = (i % 3 == 0) ? QueryKind::kEvidenceProbability
                          : QueryKind::kPosterior;
    q.target = rng.uniform_index(net.size());
    q.evidence = random_evidence(net, q.target, 2, rng);
    batch.push_back(std::move(q));
  }
  const auto a = serial.post(batch);
  const auto b = pooled.post(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].posterior, b[i].posterior);
    EXPECT_EQ(a[i].evidence_probability, b[i].evidence_probability);
    EXPECT_EQ(a[i].route, b[i].route);
  }
  EXPECT_EQ(pooled.queries_served(), batch.size());
  EXPECT_EQ(pooled.batches_served(), 1u);
}

TEST(QueryEngineEquivalence, PruneRoutingIsObservableAndDisablable) {
  // A wide independent-parents network makes single-evidence relevant
  // subnetworks tiny, so pruned routing must trigger.
  const bn::BayesianNetwork net = random_network(14, 41);
  SnapshotSlot slot;
  slot.publish(make_model_snapshot(1, 0.0, net, std::nullopt));

  QueryEngine::Config cfg;
  cfg.slot = &slot;
  cfg.prune_threshold = 1.0;  // prune whenever evidence is present
  QueryEngine pruning(cfg);
  QueryEngine::Config no_prune_cfg = cfg;
  no_prune_cfg.prune = false;
  QueryEngine treeing(no_prune_cfg);

  QueryBatch batch;
  Query q;
  q.kind = QueryKind::kPosterior;
  q.target = 0;
  q.evidence = {{1, 0}};
  batch.push_back(q);

  const auto a = pruning.post(batch);
  const auto b = treeing.post(batch);
  EXPECT_EQ(a[0].route, QueryRoute::kPrunedElimination);
  EXPECT_EQ(b[0].route, QueryRoute::kCalibratedTree);
  EXPECT_EQ(pruning.pruned_routes(), 1u);
  EXPECT_EQ(treeing.pruned_routes(), 0u);
  ASSERT_EQ(a[0].posterior.size(), b[0].posterior.size());
  for (std::size_t s = 0; s < a[0].posterior.size(); ++s) {
    EXPECT_NEAR(a[0].posterior[s], b[0].posterior[s], 1e-9);
  }
}

/// Golden-model cases: the eDiaMoND KERT-BN served end-to-end, with the
/// discretizer mapping posteriors into seconds.
TEST(QueryEngineEquivalence, EdiamondGoldenModelServing) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(20070401);
  const bn::Dataset train = env.generate(240, rng);
  const DatasetDiscretizer disc(train, 3);
  const auto kert = construct_kert_discrete(env.workflow(), env.sharing(),
                                            disc, disc.discretize(train));

  SnapshotSlot slot;
  slot.publish(make_model_snapshot(3, 120.0, kert.net, disc));
  QueryEngine::Config cfg;
  cfg.slot = &slot;
  QueryEngine engine(cfg);

  const std::size_t d_node = kert.net.size() - 1;  // response node
  QueryBatch batch;
  for (std::size_t v = 0; v + 1 < kert.net.size(); ++v) {
    Query q;
    q.kind = QueryKind::kPosterior;
    q.target = v;
    q.evidence = {{d_node, 2}};  // observed slow response bin
    batch.push_back(std::move(q));
  }
  Query exceed;
  exceed.kind = QueryKind::kExceedance;
  exceed.target = d_node;
  exceed.evidence = {{0, 2}};
  exceed.threshold = disc.column(d_node).center_of(1);
  batch.push_back(exceed);

  const auto answers = engine.post(batch);
  const bn::VariableElimination ve(kert.net);
  bn::JunctionTree fresh(kert.net);
  for (std::size_t i = 0; i + 1 < answers.size(); ++i) {
    const Query& q = batch[i];
    if (answers[i].route == QueryRoute::kCalibratedTree) {
      fresh.calibrate_sorted(q.evidence);
      EXPECT_EQ(answers[i].posterior, fresh.posterior(q.target));
    } else {
      EXPECT_EQ(answers[i].posterior,
                bn::pruned_posterior(kert.net, q.target, to_map(q.evidence)));
    }
    const auto ve_post = ve.posterior(q.target, to_map(q.evidence));
    for (std::size_t s = 0; s < ve_post.size(); ++s) {
      EXPECT_NEAR(answers[i].posterior[s], ve_post[s], 1e-9);
    }
    // Summaries are in seconds: the moments over the bin centers.
    const DistributionSummary summary = summarize_discrete_posterior(
        answers[i].posterior, &disc.column(q.target));
    EXPECT_EQ(answers[i].summary.mean, summary.mean);
    EXPECT_EQ(answers[i].summary.stddev, summary.stddev);
  }
  const QueryAnswer& ex = answers.back();
  EXPECT_GE(ex.exceedance, 0.0);
  EXPECT_LE(ex.exceedance, 1.0);
  EXPECT_EQ(ex.exceedance,
            summarize_discrete_posterior(ex.posterior, &disc.column(d_node))
                .exceedance(exceed.threshold));
  EXPECT_EQ(engine.last_snapshot_version(), 3u);
}

/// FNV-1a over the bytes of \p x, continuing from \p h.
std::uint64_t fold_double(std::uint64_t h, double x) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &x, sizeof(double));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Seeded batch of every query kind on a KERT-BN whose last node is D.
/// Evidence shapes cycle through D alone, one, two and three services;
/// the target is never observed.
QueryBatch ediamond_batch(std::size_t nodes, std::size_t bins,
                          const DatasetDiscretizer& disc, kertbn::Rng& rng) {
  const std::size_t d_node = nodes - 1;
  QueryBatch batch;
  for (std::size_t i = 0; i < 96; ++i) {
    Query q;
    q.kind = static_cast<QueryKind>(i % 4);
    const std::size_t shape = (i / 4) % 4;
    if (shape == 0) {
      q.evidence = {{d_node, rng.uniform_index(bins)}};
    } else {
      std::vector<std::size_t> services = rng.permutation(d_node);
      for (std::size_t k = 0; k < shape; ++k) {
        q.evidence.emplace_back(services[k], rng.uniform_index(bins));
      }
      std::sort(q.evidence.begin(), q.evidence.end());
    }
    auto observed = [&q](std::size_t v) {
      for (const auto& e : q.evidence) {
        if (e.first == v) return true;
      }
      return false;
    };
    do {
      q.target = rng.uniform_index(nodes);
    } while (observed(q.target));
    q.threshold = disc.column(q.target).center_of(rng.uniform_index(bins));
    batch.push_back(std::move(q));
  }
  return batch;
}

/// Every double an answer returns, folded in a fixed order.
std::uint64_t fold_answers(std::uint64_t h,
                           const std::vector<QueryAnswer>& answers) {
  for (const QueryAnswer& a : answers) {
    for (double x : a.posterior) h = fold_double(h, x);
    h = fold_double(h, a.exceedance);
    h = fold_double(h, a.evidence_probability);
    h = fold_double(h, a.summary.mean);
    h = fold_double(h, a.summary.stddev);
    h = fold_double(h, a.baseline.mean);
    h = fold_double(h, a.baseline.stddev);
  }
  return h;
}

/// Pins every number the engine returns for the eDiaMoND KERT-BN at 3 and
/// 4 bins. The answers were identical on the scalar, AVX2 and AVX-512
/// tiers when pinned, so the digest holds on every tier.
TEST(QueryEngineEquivalence, EdiamondAnswersArePinned) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t bins : {3, 4}) {
    sim::SyntheticEnvironment env = sim::make_ediamond_environment();
    kertbn::Rng rng(20070400 + bins);
    const bn::Dataset train = env.generate(240, rng);
    const DatasetDiscretizer disc(train, bins);
    const auto kert = construct_kert_discrete(env.workflow(), env.sharing(),
                                              disc, disc.discretize(train));
    SnapshotSlot slot;
    slot.publish(make_model_snapshot(bins, 0.0, kert.net, disc));
    QueryEngine::Config cfg;
    cfg.slot = &slot;
    QueryEngine engine(cfg);
    const QueryBatch batch = ediamond_batch(kert.net.size(), bins, disc, rng);
    const auto answers = engine.post(batch);
    ASSERT_EQ(answers.size(), batch.size());
    for (const QueryAnswer& a : answers) {
      ASSERT_EQ(a.status, QueryStatus::kOk);
    }
    h = fold_answers(h, answers);
  }
  EXPECT_EQ(h, 0x31bc38a397a35b8aull) << std::hex << "digest 0x" << h;
}

/// Pins JunctionTree posteriors and P(e) on seeded multi-clique random
/// networks, in incremental and full mode, on every tier the host runs.
/// Half the evidence sets sit in one node's Markov blanket, so reads of
/// that node's clique see evidence assigned to the clique itself.
TEST(QueryEngineEquivalence, RandomTreeReadsArePinnedOnEveryTier) {
  TierGuard guard;
  for (simd::Tier tier : runnable_tiers()) {
    simd::set_active_tier(tier);
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const bn::BayesianNetwork net = random_network(12, seed);
      bn::JunctionTree inc(net);
      inc.warm();
      bn::JunctionTree full(net);
      full.set_incremental(false);
      kertbn::Rng rng(seed * 31 + 7);
      for (int step = 0; step < 20; ++step) {
        bn::SortedEvidence ev;
        std::vector<std::size_t> nodes;
        if (step % 2 == 0) {
          nodes = rng.permutation(net.size());
          nodes.resize(rng.uniform_index(4));
        } else {
          const std::size_t focus = rng.uniform_index(net.size());
          for (std::size_t p : net.dag().parents(focus)) nodes.push_back(p);
          for (std::size_t c : net.dag().children(focus)) nodes.push_back(c);
          if (nodes.size() > 3) nodes.resize(3);
        }
        std::sort(nodes.begin(), nodes.end());
        for (std::size_t v : nodes) {
          ev.emplace_back(v, rng.uniform_index(net.variable(v).cardinality));
        }
        for (bn::JunctionTree* tree : {&inc, &full}) {
          tree->calibrate_sorted(ev);
          h = fold_double(h, tree->evidence_probability());
          for (std::size_t v = 0; v < net.size(); ++v) {
            if (std::binary_search(nodes.begin(), nodes.end(), v)) continue;
            for (double x : tree->posterior(v)) h = fold_double(h, x);
          }
        }
      }
    }
    EXPECT_EQ(h, 0xeae1b2c89f4c53c9ull)
        << simd::to_string(tier) << std::hex << " digest 0x" << h;
  }
}

/// Malformed queries come back kInvalid instead of tripping a contract
/// deep in inference, and do not disturb the valid queries of their batch.
TEST(QueryEngineValidation, MalformedQueriesAreInvalidNotFatal) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(20070401);
  const bn::Dataset train = env.generate(240, rng);
  const DatasetDiscretizer disc(train, 3);
  const auto kert = construct_kert_discrete(env.workflow(), env.sharing(),
                                            disc, disc.discretize(train));
  SnapshotSlot slot;
  slot.publish(make_model_snapshot(5, 0.0, kert.net, disc));
  QueryEngine::Config cfg;
  cfg.slot = &slot;
  const std::size_t d_node = kert.net.size() - 1;

  auto query = [](QueryKind kind, std::size_t target, bn::SortedEvidence ev) {
    Query q;
    q.kind = kind;
    q.target = target;
    q.evidence = std::move(ev);
    q.threshold = 1.0;
    return q;
  };
  // Each malformed shape sits between valid queries of every kind.
  const QueryBatch batch = {
      query(QueryKind::kPosterior, 0, {{d_node, 2}}),
      query(QueryKind::kPosterior, 1, {{1, 0}}),  // target among evidence
      query(QueryKind::kExceedance, d_node, {{0, 2}}),
      query(QueryKind::kEvidenceProbability, 0, {{0, 3}}),  // state >= 3 bins
      query(QueryKind::kEvidenceProbability, 0, {{0, 1}, {d_node, 2}}),
      query(QueryKind::kPosterior, d_node + 1, {{0, 1}}),  // target range
      query(QueryKind::kWhatIf, d_node, {{2, 0}}),
      query(QueryKind::kPosterior, 0, {{2, 1}, {1, 0}}),  // unsorted
      query(QueryKind::kWhatIf, d_node, {{1, 0}, {1, 1}}),  // duplicate
      query(QueryKind::kPosterior, d_node, {{0, 1}, {3, 2}}),
  };
  const std::vector<std::size_t> malformed = {1, 3, 5, 7, 8};

  QueryEngine engine(cfg);
  const auto answers = engine.post(batch);
  ASSERT_EQ(answers.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryAnswer& a = answers[i];
    EXPECT_EQ(a.snapshot_version, 5u);
    if (std::find(malformed.begin(), malformed.end(), i) != malformed.end()) {
      EXPECT_EQ(a.status, QueryStatus::kInvalid) << "query " << i;
      EXPECT_TRUE(a.posterior.empty()) << "query " << i;
      continue;
    }
    ASSERT_EQ(a.status, QueryStatus::kOk) << "query " << i;
    QueryEngine solo_engine(cfg);
    const QueryAnswer solo = solo_engine.post({batch[i]})[0];
    EXPECT_EQ(a.posterior, solo.posterior) << "query " << i;
    EXPECT_EQ(a.route, solo.route) << "query " << i;
    EXPECT_EQ(a.exceedance, solo.exceedance) << "query " << i;
    EXPECT_EQ(a.evidence_probability, solo.evidence_probability)
        << "query " << i;
    EXPECT_EQ(a.summary.mean, solo.summary.mean) << "query " << i;
    EXPECT_EQ(a.summary.stddev, solo.summary.stddev) << "query " << i;
    EXPECT_EQ(a.baseline.mean, solo.baseline.mean) << "query " << i;
    EXPECT_EQ(a.baseline.stddev, solo.baseline.stddev) << "query " << i;
  }
  EXPECT_STREQ(to_string(QueryStatus::kInvalid), "invalid");
}

TEST(QueryEngineEquivalence, RepeatedBatchesReuseWarmWorkers) {
  const bn::BayesianNetwork net = random_network(10, 55);
  SnapshotSlot slot;
  slot.publish(make_model_snapshot(1, 0.0, net, std::nullopt));
  QueryEngine::Config cfg;
  cfg.slot = &slot;
  cfg.prune = false;  // force every query through the tree
  QueryEngine engine(cfg);

  QueryBatch batch;
  Query q;
  q.kind = QueryKind::kPosterior;
  q.target = net.size() - 1;
  q.evidence = {{0, 1}};
  batch.push_back(q);

  const auto first = engine.post(batch);
  for (int rep = 0; rep < 5; ++rep) {
    const auto again = engine.post(batch);
    EXPECT_EQ(again[0].posterior, first[0].posterior);
  }
  EXPECT_EQ(engine.queries_served(), 6u);
  EXPECT_EQ(engine.batches_served(), 6u);
}

}  // namespace
}  // namespace kertbn::core
