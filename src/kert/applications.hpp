#pragma once
/// \file applications.hpp
/// The Section 5 applications built on KERT-BN inference:
///   * dComp — compensates for missing data: the posterior distribution of
///     an unobservable service's elapsed time given the observable services'
///     measurement means (Section 5.1, Figure 6).
///   * pAccel — projects the end-to-end response-time distribution after a
///     hypothetical local acceleration of one service (Section 5.2,
///     Figure 7).
///   * Relative threshold-violation probability error ε (Equation 5,
///     Figure 8).

#include <optional>
#include <span>

#include "bn/discrete_inference.hpp"
#include "bn/gaussian_inference.hpp"
#include "bn/network.hpp"
#include "bn/sampling_inference.hpp"
#include "kert/discretize.hpp"

namespace kertbn::core {

/// A univariate distribution summary in natural units (seconds).
struct DistributionSummary {
  double mean = 0.0;
  double stddev = 0.0;
  /// Discrete support (bin centers, seconds) with matching masses; empty
  /// for continuous summaries.
  std::vector<double> support;
  std::vector<double> probs;

  /// P(value > threshold). Discrete summaries sum bin masses; continuous
  /// ones use the Gaussian tail of (mean, stddev).
  double exceedance(double threshold) const;
};

/// Mean and standard deviation of a distribution, in natural units.
struct DistributionMoments {
  double mean = 0.0;
  double stddev = 0.0;
};

/// True when every CPD of \p net is linear-Gaussian (exact conditioning
/// applies); false when the net holds e.g. a deterministic max CPD.
bool all_linear_gaussian(const bn::BayesianNetwork& net);

/// Moments of a discrete state distribution in seconds via bin centers (or
/// state indices when \p column is null).
DistributionMoments discrete_moments(std::span<const double> dist,
                                     const ColumnDiscretizer* column);

/// P(value > threshold) of a discrete state distribution, with states
/// valued as in discrete_moments.
double discrete_exceedance(std::span<const double> dist,
                           const ColumnDiscretizer* column, double threshold);

/// Discrete state distribution -> summary in seconds via bin centers (or
/// state indices when \p column is null). Its moments and exceedance are
/// discrete_moments and discrete_exceedance, which the QueryEngine serving
/// path calls directly.
DistributionSummary summarize_discrete_posterior(
    const std::vector<double>& dist, const ColumnDiscretizer* column);

// ---------------------------------------------------------------- dComp --

struct DCompResult {
  DistributionSummary prior;      ///< Marginal of the target before data.
  DistributionSummary posterior;  ///< After conditioning on observations.
};

/// Continuous dComp: posterior of \p target given observed measurement
/// means. Uses exact Gaussian conditioning when possible, likelihood
/// weighting otherwise.
DCompResult dcomp_continuous(const bn::BayesianNetwork& net,
                             std::size_t target,
                             const bn::ContinuousEvidence& observed_means,
                             Rng& rng, std::size_t samples = 20000);

/// Discrete dComp via exact variable elimination. When \p discretizer is
/// supplied, means/supports are reported in seconds via bin centers;
/// otherwise in state-index units.
DCompResult dcomp_discrete(const bn::BayesianNetwork& net, std::size_t target,
                           const bn::DiscreteEvidence& observed_states,
                           const DatasetDiscretizer* discretizer = nullptr,
                           std::size_t target_column = 0);

// --------------------------------------------------------------- pAccel --

struct PAccelResult {
  DistributionSummary prior_response;      ///< D before the action.
  DistributionSummary projected_response;  ///< D | Z = accelerated value.
};

/// Continuous pAccel: projects D given service \p service pinned at
/// \p accelerated_value (e.g. 0.9 × its current mean).
PAccelResult paccel_continuous(const bn::BayesianNetwork& net,
                               std::size_t service, double accelerated_value,
                               Rng& rng, std::size_t samples = 20000);

/// Discrete pAccel via variable elimination; \p accelerated_state is the
/// bin of the accelerated elapsed time.
PAccelResult paccel_discrete(const bn::BayesianNetwork& net,
                             std::size_t service,
                             std::size_t accelerated_state,
                             const DatasetDiscretizer* discretizer = nullptr);

/// Interventional pAccel: projects D under do(service = value) — graph
/// surgery instead of conditioning. On models where services share latent
/// load (resource sharing), conditioning on a fast service also selects
/// light-load regimes and overstates the end-to-end benefit; the
/// do-operator answers the actual "what if we allocate resources" question.
PAccelResult paccel_continuous_do(const bn::BayesianNetwork& net,
                                  std::size_t service,
                                  double accelerated_value, Rng& rng,
                                  std::size_t samples = 20000);

/// Mechanism-change pAccel: models "allocate resources so the service's
/// own demand shrinks to \p factor of today's" as a *parametric*
/// intervention — the service's linear-Gaussian CPD keeps its dependence
/// on upstream/co-hosted parents but its intercept and noise scale by
/// \p factor. Unlike pinning a constant (hard do()), the service keeps
/// responding to load, which is what a faster replica actually does.
/// Requires the service node to carry a LinearGaussianCpd.
PAccelResult paccel_continuous_mechanism(const bn::BayesianNetwork& net,
                                         std::size_t service, double factor,
                                         Rng& rng,
                                         std::size_t samples = 20000);

// ----------------------------------------------- threshold violations ε --

/// Relative threshold-violation probability error (Equation 5):
/// |P_bn − P_real| / P_real. Contract-fails if P_real <= 0.
double relative_violation_error(double p_bn, double p_real);

}  // namespace kertbn::core
