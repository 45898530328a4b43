#include "bn/discrete_inference.hpp"

#include <algorithm>
#include <cmath>

#include "bn/factor_kernels.hpp"
#include "bn/tabular_cpd.hpp"
#include "common/contract.hpp"

namespace kertbn::bn {

namespace {

bool has_var(const FlatFactor& f, std::size_t var) {
  return std::find(f.scope.begin(), f.scope.end(), var) != f.scope.end();
}

/// Every node's family factor with the evidence sliced out of it, in node
/// order.
std::vector<FlatFactor> evidence_factors(const BayesianNetwork& net,
                                         const DiscreteEvidence& evidence) {
  for (const auto& [var, state] : evidence) {
    KERTBN_EXPECTS(var < net.size());
    KERTBN_EXPECTS(state < net.variable(var).cardinality);
  }
  std::vector<FlatFactor> factors;
  factors.reserve(net.size());
  for (std::size_t v = 0; v < net.size(); ++v) {
    FlatFactor f = family_factor(net, v);
    for (const auto& [var, state] : evidence) {
      if (has_var(f, var)) reduce_evidence(f, var, state);
    }
    factors.push_back(std::move(f));
  }
  return factors;
}

/// Takes every factor that mentions \p var out of \p factors and returns
/// their product, folded from the unit factor in list order.
FlatFactor take_product(FactorWorkspace& ws, std::vector<FlatFactor>& factors,
                        std::size_t var) {
  FlatFactor combined = FlatFactor::unit();
  FlatFactor tmp;
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
  factors = std::move(rest);
  return combined;
}

/// out = \p f with \p var maxed out. Each entry is folded over var's
/// states in ascending order with std::max, which keeps the earlier value
/// on a tie.
void max_out(const FlatFactor& f, std::size_t var, FlatFactor& out) {
  const auto dim = static_cast<std::size_t>(
      std::find(f.scope.begin(), f.scope.end(), var) - f.scope.begin());
  KERTBN_EXPECTS(dim < f.scope.size());
  std::size_t stride = 1;
  for (std::size_t i = dim + 1; i < f.cards.size(); ++i) stride *= f.cards[i];
  const std::size_t card = f.cards[dim];
  out.scope = f.scope;
  out.cards = f.cards;
  out.scope.erase(out.scope.begin() + static_cast<std::ptrdiff_t>(dim));
  out.cards.erase(out.cards.begin() + static_cast<std::ptrdiff_t>(dim));
  out.values.resize(f.values.size() / card);
  std::size_t o = 0;
  for (std::size_t base = 0; base < f.values.size(); base += stride * card) {
    for (std::size_t inner = 0; inner < stride; ++inner, ++o) {
      double best = f.values[base + inner];
      for (std::size_t k = 1; k < card; ++k) {
        best = std::max(best, f.values[base + k * stride + inner]);
      }
      out.values[o] = best;
    }
  }
}

}  // namespace

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

FlatFactor VariableElimination::run(std::span<const std::size_t> keep,
                                    const DiscreteEvidence& evidence) const {
  // Runs on the flat factor kernels shared with the junction tree (same
  // fold order and summation order as the legacy Factor chain, so the
  // scalar dispatch tier is bit-identical to it). VE instances are built
  // per query by the pruned-query router, so the plan cache is run-local —
  // it still pays off because elimination re-hits the same scope shapes.
  FactorWorkspace ws;
  std::vector<FlatFactor> factors = evidence_factors(net_, evidence);

  std::vector<bool> is_kept(net_.size(), false);
  for (std::size_t q : keep) is_kept[q] = true;
  for (const auto& [var, _] : evidence) is_kept[var] = true;

  // Eliminate hidden variables smallest-intermediate-factor first
  // (greedy min-weight heuristic).
  std::vector<std::size_t> hidden;
  for (std::size_t v = 0; v < net_.size(); ++v) {
    if (!is_kept[v]) hidden.push_back(v);
  }

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
    const FlatFactor combined = take_product(ws, factors, var);
    std::vector<std::size_t> target;
    target.reserve(combined.scope.size());
    for (std::size_t sv : combined.scope) {
      if (sv != var) target.push_back(sv);
    }
    FlatFactor reduced;
    ws.reduce(combined, target, reduced);
    factors.push_back(std::move(reduced));
  }

  FlatFactor result = FlatFactor::unit();
  FlatFactor tmp;
  for (const FlatFactor& f : factors) {
    ws.product(result, f, tmp);
    std::swap(result, tmp);
  }
  return result;
}

std::vector<double> VariableElimination::posterior(
    std::size_t query, const DiscreteEvidence& evidence) const {
  KERTBN_EXPECTS(query < net_.size());
  KERTBN_EXPECTS(!evidence.contains(query));
  const std::size_t keep[] = {query};
  FlatFactor joint = run(keep, evidence);
  // The result's scope is exactly {query}.
  KERTBN_ASSERT(joint.scope.size() == 1 && joint.scope[0] == query);
  // Each entry over the storage-order total; an all-zero result stays as
  // it is.
  const double t = joint.total();
  if (t <= 0.0) return std::move(joint.values);
  for (double& x : joint.values) x /= t;
  return std::move(joint.values);
}

double VariableElimination::evidence_probability(
    const DiscreteEvidence& evidence) const {
  KERTBN_EXPECTS(!evidence.empty());
  return run({}, evidence).total();
}

MpeResult most_probable_explanation(const BayesianNetwork& net,
                                    const DiscreteEvidence& evidence) {
  KERTBN_EXPECTS(net.is_complete());
  FactorWorkspace ws;
  std::vector<FlatFactor> factors = evidence_factors(net, evidence);

  // Max-product elimination of every hidden variable, in index order,
  // recording the combined factor before each elimination for traceback.
  std::vector<std::size_t> hidden;
  for (std::size_t v = 0; v < net.size(); ++v) {
    if (!evidence.contains(v)) hidden.push_back(v);
  }
  struct Step {
    std::size_t var;
    FlatFactor combined;  // factor over var + not-yet-eliminated scope
  };
  std::vector<Step> trace;
  trace.reserve(hidden.size());

  for (std::size_t var : hidden) {
    FlatFactor combined = take_product(ws, factors, var);
    FlatFactor maxed;
    max_out(combined, var, maxed);
    factors.push_back(std::move(maxed));
    trace.push_back({var, std::move(combined)});
  }

  // Remaining factors are scalars; their product is max_x P(x, e).
  double best = 1.0;
  for (const FlatFactor& f : factors) best *= f.total();

  MpeResult result;
  result.states.assign(net.size(), 0);
  for (const auto& [var, state] : evidence) result.states[var] = state;
  result.log_probability = std::log(std::max(best, 1e-300));

  // Traceback in reverse elimination order: each step's factor depends
  // only on its own variable and variables eliminated *later* (already
  // assigned by now). Slicing those out leaves a factor over var alone;
  // its first largest entry is var's state.
  for (std::size_t i = trace.size(); i-- > 0;) {
    FlatFactor& f = trace[i].combined;
    const std::vector<std::size_t> scope = f.scope;
    for (std::size_t v : scope) {
      if (v != trace[i].var) reduce_evidence(f, v, result.states[v]);
    }
    KERTBN_ASSERT(f.scope.size() == 1);
    std::size_t arg = 0;
    for (std::size_t s = 1; s < f.values.size(); ++s) {
      if (f.values[s] > f.values[arg]) arg = s;
    }
    result.states[trace[i].var] = arg;
  }
  return result;
}

}  // namespace kertbn::bn
