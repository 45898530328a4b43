#pragma once
/// \file discrete_inference.hpp
/// Exact inference for all-discrete networks via variable elimination.
/// This powers the Section 5 applications: dComp posterior queries and
/// pAccel response-time projections on the discrete eDiaMoND models.

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "bn/factor_kernels.hpp"
#include "bn/network.hpp"

namespace kertbn::bn {

/// Evidence: node index -> observed state. Every node must be in the
/// network and every state one of its node's states (contract-checked by
/// variable elimination and the most probable explanation).
using DiscreteEvidence = std::map<std::size_t, std::size_t>;

/// Family factor of tabular node \p v, read straight from its CPT: scope =
/// parents (first most significant) then v, values = the table, whose
/// (configuration, state) row-major layout is that scope's layout. Variable
/// elimination's node factors and the junction tree's clique potentials
/// both start here.
FlatFactor family_factor(const BayesianNetwork& net, std::size_t v);

/// Variable-elimination engine bound to one (all-discrete, complete)
/// network. The network must outlive the engine.
class VariableElimination {
 public:
  explicit VariableElimination(const BayesianNetwork& net);

  /// Posterior P(query | evidence) as a normalized state vector.
  std::vector<double> posterior(std::size_t query,
                                const DiscreteEvidence& evidence) const;

  /// Probability of the evidence, P(e).
  double evidence_probability(const DiscreteEvidence& evidence) const;

 private:
  /// Eliminates all variables outside keep ∪ evidence scope.
  FlatFactor run(std::span<const std::size_t> keep,
                 const DiscreteEvidence& evidence) const;

  const BayesianNetwork& net_;
};

/// Most probable explanation: the jointly most likely assignment of every
/// non-evidence variable given the evidence (max-product variable
/// elimination with traceback). The autonomic use case is performance
/// problem localization: "given the violated response time we observed,
/// which joint service state best explains it?"
struct MpeResult {
  /// states[v]: assigned state for every node (evidence nodes keep their
  /// observed state).
  std::vector<std::size_t> states;
  /// log P(states) — the joint log-probability of the full assignment.
  double log_probability = 0.0;
};

MpeResult most_probable_explanation(const BayesianNetwork& net,
                                    const DiscreteEvidence& evidence);

}  // namespace kertbn::bn
