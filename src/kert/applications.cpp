#include "kert/applications.hpp"

#include <cmath>

#include "bn/intervention.hpp"
#include "bn/linear_gaussian_cpd.hpp"
#include "common/contract.hpp"
#include "common/stats.hpp"

namespace kertbn::core {

namespace {

/// Sum of the masses whose support value exceeds \p threshold, in state
/// order: the one discrete exceedance loop.
template <typename Support>
double exceedance_of(std::span<const double> probs, Support support,
                     double threshold) {
  double p = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (support(i) > threshold) p += probs[i];
  }
  return p;
}

double state_value(const ColumnDiscretizer* column, std::size_t state) {
  return column ? column->center_of(state) : static_cast<double>(state);
}

}  // namespace

double DistributionSummary::exceedance(double threshold) const {
  if (!support.empty()) {
    return exceedance_of(
        probs, [this](std::size_t i) { return support[i]; }, threshold);
  }
  const double sd = std::max(stddev, 1e-9);
  return 1.0 - gaussian_cdf(threshold, mean, sd);
}

DistributionMoments discrete_moments(std::span<const double> dist,
                                     const ColumnDiscretizer* column) {
  double m = 0.0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    m += state_value(column, i) * dist[i];
  }
  double var = 0.0;
  for (std::size_t i = 0; i < dist.size(); ++i) {
    const double d = state_value(column, i) - m;
    var += d * d * dist[i];
  }
  return {m, std::sqrt(var)};
}

double discrete_exceedance(std::span<const double> dist,
                           const ColumnDiscretizer* column, double threshold) {
  return exceedance_of(
      dist, [column](std::size_t i) { return state_value(column, i); },
      threshold);
}

bool all_linear_gaussian(const bn::BayesianNetwork& net) {
  for (std::size_t v = 0; v < net.size(); ++v) {
    if (!net.has_cpd(v)) return false;
    if (net.cpd(v).kind() != bn::CpdKind::kLinearGaussian) return false;
  }
  return true;
}

namespace {

DistributionSummary summarize_samples(std::span<const double> xs) {
  DistributionSummary s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  return s;
}

DistributionSummary summarize_weighted(const bn::WeightedSamples& ws) {
  DistributionSummary s;
  s.mean = ws.mean();
  s.stddev = std::sqrt(ws.variance());
  return s;
}

}  // namespace

DistributionSummary summarize_discrete_posterior(
    const std::vector<double>& dist, const ColumnDiscretizer* column) {
  DistributionSummary s;
  s.probs = dist;
  s.support.resize(dist.size());
  for (std::size_t i = 0; i < dist.size(); ++i) {
    s.support[i] = state_value(column, i);
  }
  const DistributionMoments m = discrete_moments(dist, column);
  s.mean = m.mean;
  s.stddev = m.stddev;
  return s;
}

namespace {

DistributionSummary continuous_marginal(const bn::BayesianNetwork& net,
                                        std::size_t node, Rng& rng,
                                        std::size_t samples) {
  if (all_linear_gaussian(net)) {
    const bn::GaussianDistribution joint = bn::joint_gaussian(net);
    DistributionSummary s;
    s.mean = joint.mean_of(node);
    s.stddev = std::sqrt(std::max(joint.variance_of(node), 0.0));
    return s;
  }
  return summarize_samples(bn::forward_marginal(net, node, samples, rng));
}

DistributionSummary continuous_posterior(
    const bn::BayesianNetwork& net, std::size_t node,
    const bn::ContinuousEvidence& evidence, Rng& rng, std::size_t samples) {
  if (evidence.empty()) return continuous_marginal(net, node, rng, samples);
  if (all_linear_gaussian(net)) {
    const bn::ScalarPosterior post =
        bn::gaussian_posterior(net, node, evidence);
    DistributionSummary s;
    s.mean = post.mean;
    s.stddev = std::sqrt(std::max(post.variance, 0.0));
    return s;
  }
  return summarize_weighted(
      bn::likelihood_weighted_posterior(net, node, evidence, rng,
                                        {.samples = samples}));
}

}  // namespace

DCompResult dcomp_continuous(const bn::BayesianNetwork& net,
                             std::size_t target,
                             const bn::ContinuousEvidence& observed_means,
                             Rng& rng, std::size_t samples) {
  KERTBN_EXPECTS(!observed_means.contains(target));
  DCompResult out;
  out.prior = continuous_marginal(net, target, rng, samples);
  out.posterior =
      continuous_posterior(net, target, observed_means, rng, samples);
  return out;
}

DCompResult dcomp_discrete(const bn::BayesianNetwork& net, std::size_t target,
                           const bn::DiscreteEvidence& observed_states,
                           const DatasetDiscretizer* discretizer,
                           std::size_t target_column) {
  KERTBN_EXPECTS(!observed_states.contains(target));
  const bn::VariableElimination ve(net);
  const ColumnDiscretizer* column =
      discretizer ? &discretizer->column(target_column) : nullptr;
  DCompResult out;
  out.prior = summarize_discrete_posterior(ve.posterior(target, {}), column);
  out.posterior =
      summarize_discrete_posterior(ve.posterior(target, observed_states), column);
  return out;
}

PAccelResult paccel_continuous(const bn::BayesianNetwork& net,
                               std::size_t service, double accelerated_value,
                               Rng& rng, std::size_t samples) {
  const std::size_t d_node = net.size() - 1;
  KERTBN_EXPECTS(service != d_node);
  PAccelResult out;
  out.prior_response = continuous_marginal(net, d_node, rng, samples);
  out.projected_response = continuous_posterior(
      net, d_node, {{service, accelerated_value}}, rng, samples);
  return out;
}

PAccelResult paccel_continuous_do(const bn::BayesianNetwork& net,
                                  std::size_t service,
                                  double accelerated_value, Rng& rng,
                                  std::size_t samples) {
  const std::size_t d_node = net.size() - 1;
  KERTBN_EXPECTS(service != d_node);
  PAccelResult out;
  out.prior_response = continuous_marginal(net, d_node, rng, samples);
  const bn::BayesianNetwork mutilated =
      bn::do_intervention(net, service, accelerated_value);
  out.projected_response =
      continuous_marginal(mutilated, d_node, rng, samples);
  return out;
}

PAccelResult paccel_continuous_mechanism(const bn::BayesianNetwork& net,
                                         std::size_t service, double factor,
                                         Rng& rng, std::size_t samples) {
  const std::size_t d_node = net.size() - 1;
  KERTBN_EXPECTS(service != d_node);
  KERTBN_EXPECTS(factor > 0.0);
  KERTBN_EXPECTS(net.cpd(service).kind() == bn::CpdKind::kLinearGaussian);

  PAccelResult out;
  out.prior_response = continuous_marginal(net, d_node, rng, samples);

  bn::BayesianNetwork changed = net;
  const auto& lg =
      static_cast<const bn::LinearGaussianCpd&>(net.cpd(service));
  changed.set_cpd(service,
                  std::make_unique<bn::LinearGaussianCpd>(
                      lg.intercept() * factor, lg.weights(),
                      std::max(lg.sigma() * factor, 1e-9)));
  out.projected_response =
      continuous_marginal(changed, d_node, rng, samples);
  return out;
}

PAccelResult paccel_discrete(const bn::BayesianNetwork& net,
                             std::size_t service,
                             std::size_t accelerated_state,
                             const DatasetDiscretizer* discretizer) {
  const std::size_t d_node = net.size() - 1;
  KERTBN_EXPECTS(service != d_node);
  const bn::VariableElimination ve(net);
  const ColumnDiscretizer* column =
      discretizer ? &discretizer->column(d_node) : nullptr;
  PAccelResult out;
  out.prior_response = summarize_discrete_posterior(ve.posterior(d_node, {}), column);
  out.projected_response = summarize_discrete_posterior(
      ve.posterior(d_node, {{service, accelerated_state}}), column);
  return out;
}

double relative_violation_error(double p_bn, double p_real) {
  KERTBN_EXPECTS(p_real > 0.0);
  return std::abs(p_bn - p_real) / p_real;
}

}  // namespace kertbn::core
