#pragma once
/// \file networks.hpp
/// Seeded discrete networks shared by the inference suites: random DAGs
/// and the eDiaMoND KERT-BN.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bn/network.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/rng.hpp"
#include "kert/kert_builder.hpp"
#include "sosim/synthetic.hpp"

namespace kertbn::test_support {

/// Random discrete network: \p n nodes of 2 or 3 states; node v takes up to
/// min(v, max_parents) parents among the nodes before it; CPT entries are
/// drawn uniformly in [0.05, 1) and each row is normalized.
inline bn::BayesianNetwork random_network(std::size_t n, std::uint64_t seed,
                                          std::size_t max_parents = 3) {
  kertbn::Rng rng(seed);
  bn::BayesianNetwork net;
  for (std::size_t i = 0; i < n; ++i) {
    net.add_node(bn::Variable::discrete("v" + std::to_string(i),
                                        2 + rng.uniform_index(2)));
  }
  for (std::size_t v = 1; v < n; ++v) {
    const std::size_t k =
        rng.uniform_index(std::min<std::size_t>(v, max_parents) + 1);
    auto perm = rng.permutation(v);
    for (std::size_t i = 0; i < k; ++i) net.add_edge(perm[i], v);
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t configs = 1;
    std::vector<std::size_t> cards;
    for (std::size_t p : net.dag().parents(v)) {
      cards.push_back(net.variable(p).cardinality);
      configs *= net.variable(p).cardinality;
    }
    const std::size_t card = net.variable(v).cardinality;
    std::vector<double> table;
    table.reserve(configs * card);
    for (std::size_t c = 0; c < configs * card; ++c) {
      table.push_back(rng.uniform(0.05, 1.0));
    }
    net.set_cpd(v, std::make_unique<bn::TabularCpd>(
                       bn::TabularCpd(card, cards, table)));
  }
  return net;
}

/// The discrete eDiaMoND KERT-BN at \p bins states per node, fitted to 400
/// seeded rows of the synthetic environment. One clique: D (the last node)
/// is a child of every service.
inline bn::BayesianNetwork ediamond_kert(std::size_t bins) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(42);
  const bn::Dataset train = env.generate(400, rng);
  const core::DatasetDiscretizer disc(train, bins);
  return core::construct_kert_discrete(env.workflow(), env.sharing(), disc,
                                       disc.discretize(train))
      .net;
}

}  // namespace kertbn::test_support
