#pragma once
/// \file kert_builder.hpp
/// KERT-BN construction (Section 3): the knowledge-enhanced response-time
/// Bayesian network. Structure comes from workflow + resource-sharing
/// knowledge (no structure learning); the response-time node's CPD is the
/// deterministic workflow function with a leak (Equation 4); the remaining
/// service CPDs are learned from data — centrally or decentralized.

#include <optional>

#include "bn/deterministic_cpd.hpp"
#include "bn/learning.hpp"
#include "bn/network.hpp"
#include "common/thread_pool.hpp"
#include "decentral/decentralized_learner.hpp"
#include "kert/discretize.hpp"
#include "kert/window_stats.hpp"
#include "workflow/resource.hpp"
#include "workflow/workflow.hpp"

namespace kertbn::core {

/// Node layout shared by every network this library builds: service node i
/// is BN node i, and the response-time node D is node n (last).
inline std::size_t response_node(std::size_t n_services) {
  return n_services;
}

struct KertStructureOptions {
  /// Add dependency edges between services sharing a resource (the second
  /// knowledge channel of Section 3.2).
  bool use_resource_sharing = true;
};

/// Builds the knowledge-given DAG: workflow upstream edges between service
/// nodes, resource-sharing edges between co-hosted services (oriented from
/// lower to higher node index, skipped if they would cycle), and edges from
/// every service node into D.
graph::Dag build_kert_structure(const wf::Workflow& workflow,
                                const wf::ResourceSharing& sharing,
                                const KertStructureOptions& opts = {});

/// Packages the workflow-derived deterministic response-time function as a
/// continuous CPD with the given leak noise (Equation 4 with l -> sigma).
bn::DeterministicFn make_response_fn(const wf::Workflow& workflow);

/// Calibrates the leak noise scale from training data: the standard
/// deviation of the residual D - f(X) over the window (floored at
/// \p min_sigma). One pass over the data — the deterministic function
/// itself still comes from knowledge, only the measurement-noise scale of
/// Equation 4 is read off the monitors.
double calibrate_leak_sigma(const wf::Workflow& workflow,
                            const bn::Dataset& train,
                            double min_sigma = 1e-6);

/// Same calibration fed from pre-accumulated residual moments (Σe, Σe²
/// over \p rows residuals) instead of a data pass — the WindowStats route.
/// Uses the identical formula as calibrate_leak_sigma, so results agree to
/// floating-point reassociation error.
double leak_sigma_from_residual_moments(double sum, double sum_sq,
                                        std::size_t rows,
                                        double min_sigma = 1e-6);

/// Materializes Equation 4 as a CPT for the discrete variant. For each
/// parent bin configuration the deterministic function is integrated over
/// the configuration's bin intervals by Monte Carlo: \p samples_per_config
/// evaluations of f at points drawn uniformly from the intervals
/// (knowledge + bin geometry only, no response data), and the resulting
/// D-bin frequencies carry mass (1 - leak_l); leak_l spreads uniformly. The
/// points come from one fixed-seed xoshiro stream, drawn configuration by
/// configuration, sample by sample, service by service; that seed and order
/// are part of the output, so equal inputs give bit-identical tables.
/// samples_per_config = 1 evaluates f at the bin centers only (the naive
/// variant; loses within-bin spread and miscalibrates tails).
bn::TabularCpd make_deterministic_cpt(const wf::Workflow& workflow,
                                      const DatasetDiscretizer& discretizer,
                                      double leak_l,
                                      std::size_t samples_per_config = 64);

/// Continuous KERT-BN skeleton: X nodes continuous, D carries the
/// deterministic CPD, service CPDs left to the learner.
bn::BayesianNetwork build_kert_skeleton_continuous(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    double leak_sigma = 1e-3, const KertStructureOptions& opts = {});

/// Discrete KERT-BN skeleton: X and D discrete with the discretizer's bin
/// count, D carries the materialized deterministic CPT.
bn::BayesianNetwork build_kert_skeleton_discrete(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const DatasetDiscretizer& discretizer, double leak_l = 0.02,
    const KertStructureOptions& opts = {});

/// How the service CPDs are learned.
enum class LearningMode { kCentralized, kDecentralized };

/// Timing breakdown of one KERT-BN construction.
struct KertConstructionReport {
  /// Skeleton time: knowledge-to-DAG translation plus, on the discrete
  /// path, materializing D's CPT (or copying a cached one).
  double structure_seconds = 0.0;
  double parameter_seconds = 0.0;  ///< Elapsed parameter-learning time.
  /// Per-node CPD fit times (decentralized mode: the concurrent per-agent
  /// times whose max is the protocol's completion time).
  std::vector<double> per_node_seconds;
  double decentralized_seconds = 0.0;
  double centralized_equivalent_seconds = 0.0;
  double total_seconds = 0.0;
};

/// End-to-end construction of a continuous KERT-BN from a training window.
/// Dataset columns: services in order, then D. \p leak_sigma <= 0 (the
/// default) auto-calibrates the leak scale from the training residuals.
struct KertResult {
  bn::BayesianNetwork net;
  KertConstructionReport report;
};
KertResult construct_kert_continuous(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const bn::Dataset& train, LearningMode mode = LearningMode::kCentralized,
    double leak_sigma = 0.0, const bn::ParameterLearnOptions& learn = {},
    ThreadPool* pool = nullptr);

/// End-to-end construction of a discrete KERT-BN. \p train must already be
/// discretized with \p discretizer. \p cached_d_cpt optionally supplies
/// D's CPT already materialized under \p discretizer (with \p leak_l), as
/// in construct_kert_discrete_from_counts; the learner still sees it as a
/// preset CPD, so ParameterLearnOptions::refit_existing applies as usual.
KertResult construct_kert_discrete(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const DatasetDiscretizer& discretizer, const bn::Dataset& train,
    LearningMode mode = LearningMode::kCentralized, double leak_l = 0.02,
    const bn::ParameterLearnOptions& learn = {}, ThreadPool* pool = nullptr,
    const bn::TabularCpd* cached_d_cpt = nullptr);

/// Continuous KERT-BN from cached window statistics: \p gram is the
/// combined augmented Gram matrix over the window's \p rows rows (see
/// WindowStats::combined_gram) and \p leak_sigma the already-calibrated
/// leak scale (use leak_sigma_from_residual_moments). Service CPDs are
/// solved from the moments — through the same normal-equation solver the
/// full-recount path uses — without touching a single raw row; with a
/// pool the per-node solves run concurrently.
KertResult construct_kert_continuous_from_stats(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const la::Matrix& gram, std::size_t rows, double leak_sigma,
    const bn::ParameterLearnOptions& learn = {}, ThreadPool* pool = nullptr);

/// Count-table layouts for every learnable (service) node of the discrete
/// KERT-BN over the knowledge structure: layouts[v] describes node v with
/// its knowledge-given parents, all cardinalities \p bins. Feed these to
/// WindowStats::counts and the resulting tables to
/// construct_kert_discrete_from_counts.
std::vector<CountLayout> kert_discrete_count_layouts(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    std::size_t bins, const KertStructureOptions& opts = {});

/// Discrete KERT-BN from cached per-node count tables (one per service
/// node, laid out per kert_discrete_count_layouts). Counts are exact, so
/// the CPTs are bit-identical to a full recount under the same
/// discretizer. \p cached_d_cpt optionally reuses a previously
/// materialized deterministic response CPT (valid as long as the
/// discretizer's edges are unchanged) — skipping the bins^n integration
/// that dominates discrete construction time.
KertResult construct_kert_discrete_from_counts(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const DatasetDiscretizer& discretizer,
    std::span<const std::vector<double>> node_counts, double leak_l = 0.02,
    const bn::ParameterLearnOptions& learn = {}, ThreadPool* pool = nullptr,
    const bn::TabularCpd* cached_d_cpt = nullptr);

/// Continuous KERT-BN for an arbitrary transaction metric (Section 3.3:
/// "the CPD format given by Equation 4 ... also applies to other
/// transaction-oriented performance metrics such as timeout request
/// count, only with a different mapping from the workflow to f").
/// \p metric_expr is the workflow-derived aggregate — e.g.
/// workflow.count_expr() for timeout counts (D = Σ X_i). Dataset layout is
/// unchanged: services then D.
KertResult construct_kert_for_metric(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const wf::Expr::Ptr& metric_expr, const bn::Dataset& train,
    LearningMode mode = LearningMode::kCentralized, double leak_sigma = 0.0,
    const bn::ParameterLearnOptions& learn = {}, ThreadPool* pool = nullptr);

/// Continuous KERT-BN with explicit resource-utilization nodes — the
/// literal Section 3.2 reading: "resource sharing may be represented by
/// services forming the parents to a KERT-BN node embodying the resource
/// they share". Node layout: services 0..n-1, one node per resource group
/// n..n+m-1 (parents: the group's services), then D (parents: the
/// services). Dataset columns must match generate_with_resources().
/// Resource CPDs are learned like service CPDs; dComp can then infer an
/// unmonitored resource's utilization from service elapsed times.
KertResult construct_kert_with_resources(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const bn::Dataset& train, LearningMode mode = LearningMode::kCentralized,
    double leak_sigma = 0.0, const bn::ParameterLearnOptions& learn = {},
    ThreadPool* pool = nullptr);

}  // namespace kertbn::core
