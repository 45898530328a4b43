#include "bn/discrete_inference.hpp"

#include <algorithm>
#include <cmath>

#include "bn/factor_kernels.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/contract.hpp"

namespace kertbn::bn {

VariableElimination::VariableElimination(const BayesianNetwork& net)
    : net_(net) {
  KERTBN_EXPECTS(net.is_complete());
  for (std::size_t v = 0; v < net.size(); ++v) {
    KERTBN_EXPECTS(net.variable(v).is_discrete());
    KERTBN_EXPECTS(net.cpd(v).kind() == CpdKind::kTabular);
  }
}

FlatFactor family_factor(const BayesianNetwork& net, std::size_t v) {
  const auto& cpt = static_cast<const TabularCpd&>(net.cpd(v));
  const auto pars = net.dag().parents(v);
  FlatFactor f{{pars.begin(), pars.end()},
               cpt.parent_cardinalities(),
               {cpt.table().begin(), cpt.table().end()}};
  f.scope.push_back(v);
  f.cards.push_back(cpt.child_cardinality());
  return f;
}

Factor VariableElimination::run(std::span<const std::size_t> keep,
                                const DiscreteEvidence& evidence) const {
  // Runs on the flat factor kernels shared with the junction tree (same
  // fold order and summation order as the legacy Factor chain, so the
  // scalar dispatch tier is bit-identical to it). VE instances are built
  // per query by the pruned-query router, so the plan cache is run-local —
  // it still pays off because elimination re-hits the same scope shapes.
  FactorWorkspace ws;
  auto has_var = [](const FlatFactor& f, std::size_t var) {
    return std::find(f.scope.begin(), f.scope.end(), var) != f.scope.end();
  };

  // Build all node factors, applying evidence reductions eagerly.
  std::vector<FlatFactor> factors;
  factors.reserve(net_.size());
  for (std::size_t v = 0; v < net_.size(); ++v) {
    FlatFactor f = family_factor(net_, v);
    for (const auto& [var, state] : evidence) {
      if (has_var(f, var)) reduce_evidence(f, var, state);
    }
    factors.push_back(std::move(f));
  }

  std::vector<bool> is_kept(net_.size(), false);
  for (std::size_t q : keep) is_kept[q] = true;
  for (const auto& [var, _] : evidence) is_kept[var] = true;

  // Eliminate hidden variables smallest-intermediate-factor first
  // (greedy min-weight heuristic).
  std::vector<std::size_t> hidden;
  for (std::size_t v = 0; v < net_.size(); ++v) {
    if (!is_kept[v]) hidden.push_back(v);
  }

  FlatFactor tmp;
  while (!hidden.empty()) {
    // Pick the hidden variable whose elimination builds the smallest factor.
    std::size_t best_pos = 0;
    double best_cost = -1.0;
    for (std::size_t i = 0; i < hidden.size(); ++i) {
      const std::size_t var = hidden[i];
      double cost = 1.0;
      std::vector<std::size_t> seen;
      for (const FlatFactor& f : factors) {
        if (!has_var(f, var)) continue;
        for (std::size_t k = 0; k < f.scope.size(); ++k) {
          const std::size_t sv = f.scope[k];
          if (std::find(seen.begin(), seen.end(), sv) == seen.end()) {
            seen.push_back(sv);
            cost *= static_cast<double>(f.cards[k]);
          }
        }
      }
      if (best_cost < 0.0 || cost < best_cost) {
        best_cost = cost;
        best_pos = i;
      }
    }
    const std::size_t var = hidden[best_pos];
    hidden.erase(hidden.begin() + static_cast<std::ptrdiff_t>(best_pos));

    // Multiply all factors mentioning var, then sum it out.
    FlatFactor combined = FlatFactor::unit();
    std::vector<FlatFactor> rest;
    rest.reserve(factors.size());
    for (FlatFactor& f : factors) {
      if (has_var(f, var)) {
        ws.product(combined, f, tmp);
        std::swap(combined, tmp);
      } else {
        rest.push_back(std::move(f));
      }
    }
    std::vector<std::size_t> target;
    target.reserve(combined.scope.size());
    for (std::size_t sv : combined.scope) {
      if (sv != var) target.push_back(sv);
    }
    FlatFactor reduced;
    ws.reduce(combined, target, reduced);
    rest.push_back(std::move(reduced));
    factors = std::move(rest);
  }

  FlatFactor result = FlatFactor::unit();
  for (const FlatFactor& f : factors) {
    ws.product(result, f, tmp);
    std::swap(result, tmp);
  }
  return result.to_factor();
}

std::vector<double> VariableElimination::posterior(
    std::size_t query, const DiscreteEvidence& evidence) const {
  KERTBN_EXPECTS(query < net_.size());
  KERTBN_EXPECTS(!evidence.contains(query));
  const std::size_t keep[] = {query};
  const Factor joint = run(keep, evidence).normalized();
  // The result's scope is exactly {query}.
  KERTBN_ASSERT(joint.scope().size() == 1 && joint.scope()[0] == query);
  return joint.values();
}

Factor VariableElimination::joint_posterior(
    std::span<const std::size_t> queries,
    const DiscreteEvidence& evidence) const {
  return run(queries, evidence).normalized();
}

double VariableElimination::evidence_probability(
    const DiscreteEvidence& evidence) const {
  KERTBN_EXPECTS(!evidence.empty());
  const Factor f = run({}, evidence);
  return f.total();
}

MpeResult most_probable_explanation(const BayesianNetwork& net,
                                    const DiscreteEvidence& evidence) {
  KERTBN_EXPECTS(net.is_complete());
  // Build evidence-reduced node factors (same layout as VE).
  std::vector<Factor> factors;
  factors.reserve(net.size());
  for (std::size_t v = 0; v < net.size(); ++v) {
    Factor f = family_factor(net, v).to_factor();
    for (const auto& [var, state] : evidence) {
      if (f.has_variable(var)) f = f.reduce(var, state);
    }
    factors.push_back(std::move(f));
  }

  // Max-product elimination of every hidden variable, in index order,
  // recording the combined factor before each elimination for traceback.
  std::vector<std::size_t> hidden;
  for (std::size_t v = 0; v < net.size(); ++v) {
    if (!evidence.contains(v)) hidden.push_back(v);
  }
  struct Step {
    std::size_t var;
    Factor combined;  // factor over var + not-yet-eliminated scope
  };
  std::vector<Step> trace;
  trace.reserve(hidden.size());

  for (std::size_t var : hidden) {
    Factor combined = Factor::unit();
    std::vector<Factor> rest;
    rest.reserve(factors.size());
    for (Factor& f : factors) {
      if (f.has_variable(var)) {
        combined = combined.product(f);
      } else {
        rest.push_back(std::move(f));
      }
    }
    rest.push_back(combined.max_marginalize(var));
    factors = std::move(rest);
    trace.push_back({var, std::move(combined)});
  }

  // Remaining factors are scalars; their product is max_x P(x, e).
  double best = 1.0;
  for (const Factor& f : factors) best *= f.total();

  MpeResult result;
  result.states.assign(net.size(), 0);
  for (const auto& [var, state] : evidence) result.states[var] = state;
  result.log_probability = std::log(std::max(best, 1e-300));

  // Traceback in reverse elimination order: each step's factor depends
  // only on its own variable and variables eliminated *later* (already
  // assigned by now).
  for (std::size_t i = trace.size(); i-- > 0;) {
    Factor f = trace[i].combined;
    for (std::size_t v : std::vector<std::size_t>(f.scope())) {
      if (v == trace[i].var) continue;
      f = f.reduce(v, result.states[v]);
    }
    result.states[trace[i].var] = f.argmax_state();
  }
  return result;
}

double posterior_mean_state(const std::vector<double>& dist) {
  double m = 0.0;
  for (std::size_t s = 0; s < dist.size(); ++s) {
    m += static_cast<double>(s) * dist[s];
  }
  return m;
}

}  // namespace kertbn::bn
