#include "kert/kert_builder.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "bn/deterministic_cpd.hpp"
#include "common/contract.hpp"
#include "common/rng_lanes.hpp"
#include "common/stopwatch.hpp"
#include "kert/response_tape.hpp"
#include "obs/span.hpp"

namespace kertbn::core {

graph::Dag build_kert_structure(const wf::Workflow& workflow,
                                const wf::ResourceSharing& sharing,
                                const KertStructureOptions& opts) {
  const std::size_t n = workflow.service_count();
  graph::Dag dag(n + 1);
  for (std::size_t s = 0; s < n; ++s) {
    dag.set_label(s, workflow.service_names()[s]);
  }
  dag.set_label(n, "D");

  // Workflow knowledge: immediate-upstream edges.
  for (const auto& [a, b] : workflow.upstream_edges()) {
    dag.add_edge(a, b);
  }
  // Resource-sharing knowledge: co-hosted services depend on each other.
  // Oriented low->high index; add_edge refuses cycles, so combinations with
  // workflow edges stay consistent ("as few loops as possible").
  if (opts.use_resource_sharing) {
    for (const auto& [a, b] : sharing.sharing_pairs()) {
      if (!dag.has_edge(a, b) && !dag.has_edge(b, a)) {
        dag.add_edge(a, b);
      }
    }
  }
  // D depends on every service elapsed time.
  for (std::size_t s = 0; s < n; ++s) {
    const bool ok = dag.add_edge(s, n);
    KERTBN_ASSERT(ok);
  }
  return dag;
}

bn::DeterministicFn make_response_fn(const wf::Workflow& workflow) {
  const wf::Expr::Ptr expr = workflow.response_time_expr();
  const std::size_t n = workflow.service_count();

  // D's parents are the service nodes 0..n-1 in node order, so the parent
  // span is indexed exactly like the expression's service leaves.
  bn::DeterministicFn fn;
  fn.arity = n;
  fn.expression = expr->to_string(workflow.service_names());
  fn.fn = [expr](std::span<const double> parents) {
    return expr->evaluate(parents);
  };
  return fn;
}

bn::TabularCpd make_deterministic_cpt(const wf::Workflow& workflow,
                                      const DatasetDiscretizer& discretizer,
                                      double leak_l,
                                      std::size_t samples_per_config) {
  KERTBN_EXPECTS(leak_l >= 0.0 && leak_l < 1.0);
  KERTBN_EXPECTS(samples_per_config >= 1);
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(discretizer.columns() == n + 1);
  KERTBN_SPAN("kert.response_cpt");
  constexpr std::size_t kLanes = RngLanes::kLanes;
  const std::size_t bins = discretizer.bins();
  const std::size_t samples = samples_per_config;
  // Sample k of lane j sits at k * kLanes + j of every tape row.
  const std::size_t width = kLanes * samples;
  ResponseTape tape(*workflow.response_time_expr(), n, width);

  // Sampling box [lo, lo + w) of every (service, bin): the interval the
  // samples of that parent state are drawn from.
  std::vector<double> box_lo(n * bins);
  std::vector<double> box_w(n * bins);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < bins; ++b) {
      const auto [lo, hi] = discretizer.column(i).interval_of(b);
      const double top = std::max(hi, lo + 1e-12);
      if (samples > 1) KERTBN_EXPECTS(lo <= top);
      box_lo[i * bins + b] = lo;
      box_w[i * bins + b] = top - lo;
    }
  }
  // Binning counts the samples past each of D's edges. That reproduces
  // ColumnDiscretizer::bin_of — the number of edges e with !(v < e) — only
  // when the edges ascend, as every discretizer fitted to finite data or
  // loaded through from_parts does.
  const std::vector<double>& d_edges = discretizer.column(n).edges();
  KERTBN_EXPECTS(std::adjacent_find(d_edges.begin(), d_edges.end(),
                                    [](double a, double b) {
                                      return !(a <= b);
                                    }) == d_edges.end());

  std::size_t configs = 1;
  for (std::size_t i = 0; i < n; ++i) configs *= bins;
  // Lane j owns the configurations [j * block, (j + 1) * block) and takes
  // one per pass; the last lanes may run out before the final passes.
  const std::size_t block = (configs + kLanes - 1) / kLanes;

  std::vector<double> table(configs * bins, 0.0);
  // states[j * n + i]: parent i's state in lane j's current configuration.
  std::vector<std::size_t> states(kLanes * n);
  for (std::size_t j = 0; j < kLanes; ++j) {
    std::size_t cfg = j * block;
    for (std::size_t i = n; i-- > 0;) {
      states[j * n + i] = cfg % bins;
      cfg /= bins;
    }
  }
  // Per pass, lane j's box for service i at [i * kLanes + j].
  std::vector<double> lane_lo(n * kLanes);
  std::vector<double> lane_w(n * kLanes);
  const double off_mass = leak_l / static_cast<double>(bins);
  const double hit_mass = (1.0 - leak_l) / static_cast<double>(samples);
  // mass_after[c]: c hit masses added one at a time from 0.0 — the value
  // a bin's entry reaches when its c samples are accumulated in order.
  std::vector<double> mass_after(samples + 1, 0.0);
  for (std::size_t c = 1; c <= samples; ++c) {
    mass_after[c] = mass_after[c - 1] + hit_mass;
  }
  // Fixed seed: the CPT is a deterministic function of the knowledge
  // (workflow + bin geometry), reproducible across reconstructions. The
  // draw order — configuration by configuration, then per sample every
  // service in order — is part of the output. Each configuration takes
  // n * samples draws, so lane j starts j * block * n * samples draws in
  // and every configuration gets the draws of the serial stream.
  RngLanes rng(Rng(0x5EED5EED), block * n * samples);

  for (std::size_t pass = 0; pass < block; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const std::size_t b = states[j * n + i];
        if (samples == 1) {
          tape.service_row(i)[j] = discretizer.column(i).center_of(b);
        } else {
          lane_lo[i * kLanes + j] = box_lo[i * bins + b];
          lane_w[i * kLanes + j] = box_w[i * bins + b];
        }
      }
    }
    if (samples > 1) {
      rng.fill_boxes(tape.service_row(0), width, n, samples, lane_lo.data(),
                     lane_w.data());
    }
    // Bin b holds the samples past edge b-1 but not past edge b.
    const double* f = tape.run();
    std::array<std::size_t, kLanes> above_prev;
    above_prev.fill(samples);
    for (std::size_t b = 0; b < bins; ++b) {
      // Counted in doubles (exact below 2^53), a form the compiler
      // vectorizes across the lanes.
      double above[kLanes] = {};
      if (b + 1 < bins) {
        const double edge = d_edges[b];
        for (std::size_t k = 0; k < samples; ++k) {
          for (std::size_t j = 0; j < kLanes; ++j) {
            above[j] += f[k * kLanes + j] < edge ? 0.0 : 1.0;
          }
        }
      }
      for (std::size_t j = 0; j < kLanes; ++j) {
        const auto count = static_cast<std::size_t>(above[j]);
        const std::size_t cfg = j * block + pass;
        if (cfg < configs) {
          table[cfg * bins + b] = mass_after[above_prev[j] - count] + off_mass;
        }
        above_prev[j] = count;
      }
    }
    // Advance each lane's mixed-radix parent counter (last parent fastest,
    // matching TabularCpd's config indexing).
    for (std::size_t j = 0; j < kLanes; ++j) {
      for (std::size_t i = n; i-- > 0;) {
        if (++states[j * n + i] < bins) break;
        states[j * n + i] = 0;
      }
    }
  }
  return bn::TabularCpd(bins, std::vector<std::size_t>(n, bins),
                        std::move(table));
}

namespace {

/// Leak calibration for an arbitrary metric expression: residual scale of
/// D - f(services) where services are the first \p n_services columns and
/// D is the last column.
double calibrate_leak_for_expr(const wf::Expr::Ptr& expr,
                               std::size_t n_services,
                               const bn::Dataset& train,
                               double min_sigma = 1e-6) {
  KERTBN_EXPECTS(train.rows() >= 1);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r = 0; r < train.rows(); ++r) {
    const auto row = train.row(r);
    const double resid =
        row[train.cols() - 1] - expr->evaluate(row.first(n_services));
    sum += resid;
    sum_sq += resid * resid;
  }
  return leak_sigma_from_residual_moments(sum, sum_sq, train.rows(),
                                          min_sigma);
}

}  // namespace

double calibrate_leak_sigma(const wf::Workflow& workflow,
                            const bn::Dataset& train, double min_sigma) {
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(train.cols() == n + 1);
  return calibrate_leak_for_expr(workflow.response_time_expr(), n, train,
                                 min_sigma);
}

double leak_sigma_from_residual_moments(double sum, double sum_sq,
                                        std::size_t rows, double min_sigma) {
  KERTBN_EXPECTS(rows >= 1);
  const double mean = sum / static_cast<double>(rows);
  const double var =
      std::max(sum_sq / static_cast<double>(rows) - mean * mean, 0.0);
  // The leak absorbs both spread and any systematic offset — a biased f
  // must not be scored as if it were exact.
  return std::max(std::sqrt(var + mean * mean), min_sigma);
}

namespace {

/// Shared skeleton assembly: nodes, knowledge edges, and the D CPD.
bn::BayesianNetwork assemble_skeleton(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const KertStructureOptions& opts, bool discrete, std::size_t bins,
    std::unique_ptr<bn::Cpd> d_cpd) {
  const std::size_t n = workflow.service_count();
  bn::BayesianNetwork net;
  for (std::size_t s = 0; s < n; ++s) {
    const auto& name = workflow.service_names()[s];
    net.add_node(discrete ? bn::Variable::discrete(name, bins)
                          : bn::Variable::continuous(name));
  }
  net.add_node(discrete ? bn::Variable::discrete("D", bins)
                        : bn::Variable::continuous("D"));

  const graph::Dag structure = build_kert_structure(workflow, sharing, opts);
  for (std::size_t v = 0; v < structure.size(); ++v) {
    for (std::size_t p : structure.parents(v)) {
      const bool ok = net.add_edge(p, v);
      KERTBN_ASSERT(ok);
    }
  }
  net.set_cpd(response_node(n), std::move(d_cpd));
  return net;
}

/// D's CPT for a discrete skeleton: a copy of \p cached when one is given
/// (it must have been materialized under the same discretizer), otherwise
/// freshly materialized.
std::unique_ptr<bn::Cpd> response_cpt(const wf::Workflow& workflow,
                                      const DatasetDiscretizer& discretizer,
                                      double leak_l,
                                      const bn::TabularCpd* cached) {
  return std::make_unique<bn::TabularCpd>(
      cached != nullptr
          ? *cached
          : make_deterministic_cpt(workflow, discretizer, leak_l));
}

}  // namespace

bn::BayesianNetwork build_kert_skeleton_continuous(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    double leak_sigma, const KertStructureOptions& opts) {
  auto d_cpd = std::make_unique<bn::DeterministicCpd>(
      make_response_fn(workflow), leak_sigma);
  return assemble_skeleton(workflow, sharing, opts, /*discrete=*/false, 0,
                           std::move(d_cpd));
}

bn::BayesianNetwork build_kert_skeleton_discrete(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const DatasetDiscretizer& discretizer, double leak_l,
    const KertStructureOptions& opts) {
  return assemble_skeleton(
      workflow, sharing, opts, /*discrete=*/true, discretizer.bins(),
      response_cpt(workflow, discretizer, leak_l, /*cached=*/nullptr));
}

namespace {

/// A cancelled learn legitimately leaves nodes unfitted; the caller
/// (ModelManager::try_reconstruct) discards the partial network instead of
/// publishing it. Completeness is only guaranteed for finished learns.
bool learn_cancelled(const bn::ParameterLearnOptions& learn) {
  return learn.cancel != nullptr &&
         learn.cancel->load(std::memory_order_relaxed);
}

KertResult finish_construction(bn::BayesianNetwork net,
                               double structure_seconds,
                               const bn::Dataset& train, LearningMode mode,
                               const bn::ParameterLearnOptions& learn,
                               ThreadPool* pool, Stopwatch& total) {
  KertResult result{std::move(net), {}};
  result.report.structure_seconds = structure_seconds;

  Stopwatch params;
  if (mode == LearningMode::kDecentralized) {
    const dec::DecentralizedReport rep =
        dec::learn_parameters_decentralized(result.net, train, learn, pool);
    result.report.per_node_seconds = rep.per_agent_seconds;
    result.report.decentralized_seconds = rep.decentralized_seconds;
    result.report.centralized_equivalent_seconds = rep.centralized_seconds;
  } else {
    // Centralized mode: one host does all fits — concurrently across nodes
    // when a pool is supplied (results are bit-identical either way).
    const bn::ParameterLearnReport rep =
        bn::learn_parameters(result.net, train, learn, pool);
    result.report.per_node_seconds = rep.per_node_seconds;
    result.report.decentralized_seconds = rep.max_node_seconds();
    result.report.centralized_equivalent_seconds = rep.sum_node_seconds();
  }
  result.report.parameter_seconds = params.seconds();
  result.report.total_seconds = total.seconds();
  KERTBN_ENSURES(learn_cancelled(learn) || result.net.is_complete());
  return result;
}

}  // namespace

KertResult construct_kert_continuous(const wf::Workflow& workflow,
                                     const wf::ResourceSharing& sharing,
                                     const bn::Dataset& train,
                                     LearningMode mode, double leak_sigma,
                                     const bn::ParameterLearnOptions& learn,
                                     ThreadPool* pool) {
  KERTBN_SPAN("kert.construct.continuous");
  Stopwatch total;
  Stopwatch structure;
  if (leak_sigma <= 0.0) {
    leak_sigma = calibrate_leak_sigma(workflow, train);
  }
  bn::BayesianNetwork net =
      build_kert_skeleton_continuous(workflow, sharing, leak_sigma);
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

KertResult construct_kert_for_metric(const wf::Workflow& workflow,
                                     const wf::ResourceSharing& sharing,
                                     const wf::Expr::Ptr& metric_expr,
                                     const bn::Dataset& train,
                                     LearningMode mode, double leak_sigma,
                                     const bn::ParameterLearnOptions& learn,
                                     ThreadPool* pool) {
  KERTBN_EXPECTS(metric_expr != nullptr);
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(train.cols() == n + 1);
  Stopwatch total;
  Stopwatch structure;
  if (leak_sigma <= 0.0) {
    leak_sigma = calibrate_leak_for_expr(metric_expr, n, train);
  }

  bn::BayesianNetwork net;
  for (std::size_t s = 0; s < n; ++s) {
    net.add_node(bn::Variable::continuous(workflow.service_names()[s]));
  }
  net.add_node(bn::Variable::continuous("D"));
  const graph::Dag dag = build_kert_structure(workflow, sharing);
  for (std::size_t v = 0; v < dag.size(); ++v) {
    for (std::size_t p : dag.parents(v)) {
      const bool ok = net.add_edge(p, v);
      KERTBN_ASSERT(ok);
    }
  }
  bn::DeterministicFn fn;
  fn.arity = n;
  fn.expression = metric_expr->to_string(workflow.service_names());
  fn.fn = [expr = metric_expr](std::span<const double> parents) {
    return expr->evaluate(parents);
  };
  net.set_cpd(response_node(n),
              std::make_unique<bn::DeterministicCpd>(std::move(fn),
                                                     leak_sigma));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

KertResult construct_kert_with_resources(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const bn::Dataset& train, LearningMode mode, double leak_sigma,
    const bn::ParameterLearnOptions& learn, ThreadPool* pool) {
  const std::size_t n = workflow.service_count();
  const std::size_t m = sharing.groups.size();
  KERTBN_EXPECTS(train.cols() == n + m + 1);
  Stopwatch total;
  Stopwatch structure;

  const wf::Expr::Ptr expr = workflow.response_time_expr();
  if (leak_sigma <= 0.0) {
    leak_sigma = calibrate_leak_for_expr(expr, n, train);
  }

  bn::BayesianNetwork net;
  for (std::size_t s = 0; s < n; ++s) {
    net.add_node(bn::Variable::continuous(workflow.service_names()[s]));
  }
  for (const auto& group : sharing.groups) {
    net.add_node(bn::Variable::continuous(group.name));
  }
  const std::size_t d_node = net.add_node(bn::Variable::continuous("D"));

  // Workflow knowledge between services (resource correlation is carried
  // by the explicit resource nodes instead of X-X shortcut edges).
  for (const auto& [a, b] : workflow.upstream_edges()) {
    net.add_edge(a, b);
  }
  // Each group's services are the parents of its resource node (the
  // paper's formulation; observing the resource couples its services).
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t s : sharing.groups[g].services) {
      KERTBN_EXPECTS(s < n);
      const bool ok = net.add_edge(s, n + g);
      KERTBN_ASSERT(ok);
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    const bool ok = net.add_edge(s, d_node);
    KERTBN_ASSERT(ok);
  }

  // D's parents are exactly the n service nodes (resource nodes have no
  // edge into D), so the deterministic function arity stays n.
  bn::DeterministicFn fn;
  fn.arity = n;
  fn.expression = expr->to_string(workflow.service_names());
  fn.fn = [expr](std::span<const double> parents) {
    return expr->evaluate(parents);
  };
  net.set_cpd(d_node, std::make_unique<bn::DeterministicCpd>(std::move(fn),
                                                             leak_sigma));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

namespace {

/// One staged per-node fit from cached statistics.
struct StagedCpdFit {
  std::unique_ptr<bn::Cpd> cpd;
  double seconds = 0.0;
};

/// Stages per-node CPD fits (serially or on \p pool), installs them, and
/// fills the report's per-node timing fields the way bn::learn_parameters
/// does. \p fit_one must be safe to run concurrently against the const
/// network (it only reads structure and the cached statistics).
template <typename FitFn>
void install_staged_fits(bn::BayesianNetwork& net,
                         const std::vector<std::size_t>& nodes, FitFn fit_one,
                         ThreadPool* pool, KertConstructionReport& report) {
  report.per_node_seconds.assign(net.size(), 0.0);
  std::vector<StagedCpdFit> fits(nodes.size());
  if (pool == nullptr || nodes.size() < 2) {
    for (std::size_t i = 0; i < nodes.size(); ++i) fits[i] = fit_one(nodes[i]);
  } else {
    std::vector<std::future<StagedCpdFit>> futures;
    futures.reserve(nodes.size());
    for (std::size_t v : nodes) {
      futures.push_back(pool->submit([&fit_one, v] { return fit_one(v); }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) fits[i] = futures[i].get();
  }
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    report.per_node_seconds[nodes[i]] = fits[i].seconds;
    sum += fits[i].seconds;
    max = std::max(max, fits[i].seconds);
    net.set_cpd(nodes[i], std::move(fits[i].cpd));
  }
  report.decentralized_seconds = max;
  report.centralized_equivalent_seconds = sum;
}

}  // namespace

KertResult construct_kert_continuous_from_stats(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const la::Matrix& gram, std::size_t rows, double leak_sigma,
    const bn::ParameterLearnOptions& learn, ThreadPool* pool) {
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(rows >= 1);
  KERTBN_EXPECTS(gram.rows() == n + 2 && gram.cols() == n + 2);
  KERTBN_EXPECTS(leak_sigma > 0.0);
  KERTBN_SPAN("kert.construct.from_stats");
  Stopwatch total;
  Stopwatch structure;
  bn::BayesianNetwork net =
      build_kert_skeleton_continuous(workflow, sharing, leak_sigma);
  const double structure_seconds = structure.seconds();

  KertResult result{std::move(net), {}};
  result.report.structure_seconds = structure_seconds;
  Stopwatch params;
  std::vector<std::size_t> nodes;
  for (std::size_t v = 0; v < result.net.size(); ++v) {
    if (!result.net.has_cpd(v)) nodes.push_back(v);
  }
  const bn::BayesianNetwork& cnet = result.net;
  auto fit_one = [&cnet, &gram, rows, &learn](std::size_t v) {
    Stopwatch timer;
    const auto pars = cnet.dag().parents(v);
    const std::vector<std::size_t> parent_cols(pars.begin(), pars.end());
    auto cpd = std::make_unique<bn::LinearGaussianCpd>(
        bn::fit_linear_gaussian_from_moments(gram, rows, v, parent_cols,
                                             learn.min_sigma, learn.ridge));
    return StagedCpdFit{std::move(cpd), timer.seconds()};
  };
  install_staged_fits(result.net, nodes, fit_one, pool, result.report);
  result.report.parameter_seconds = params.seconds();
  result.report.total_seconds = total.seconds();
  KERTBN_ENSURES(learn_cancelled(learn) || result.net.is_complete());
  return result;
}

std::vector<CountLayout> kert_discrete_count_layouts(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    std::size_t bins, const KertStructureOptions& opts) {
  KERTBN_EXPECTS(bins >= 2);
  const std::size_t n = workflow.service_count();
  const graph::Dag structure = build_kert_structure(workflow, sharing, opts);
  std::vector<CountLayout> layouts(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto pars = structure.parents(v);
    layouts[v].child_col = v;
    layouts[v].parent_cols.assign(pars.begin(), pars.end());
    layouts[v].child_card = bins;
    layouts[v].parent_cards.assign(pars.size(), bins);
  }
  return layouts;
}

KertResult construct_kert_discrete_from_counts(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const DatasetDiscretizer& discretizer,
    std::span<const std::vector<double>> node_counts, double leak_l,
    const bn::ParameterLearnOptions& learn, ThreadPool* pool,
    const bn::TabularCpd* cached_d_cpt) {
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(discretizer.columns() == n + 1);
  KERTBN_EXPECTS(node_counts.size() == n);
  const std::size_t bins = discretizer.bins();
  KERTBN_SPAN("kert.construct.from_counts");
  Stopwatch total;
  Stopwatch structure;
  bn::BayesianNetwork net = assemble_skeleton(
      workflow, sharing, {}, /*discrete=*/true, bins,
      response_cpt(workflow, discretizer, leak_l, cached_d_cpt));
  const double structure_seconds = structure.seconds();

  KertResult result{std::move(net), {}};
  result.report.structure_seconds = structure_seconds;
  Stopwatch params;
  std::vector<std::size_t> nodes;
  for (std::size_t v = 0; v < n; ++v) {
    if (!result.net.has_cpd(v)) nodes.push_back(v);
  }
  const bn::BayesianNetwork& cnet = result.net;
  auto fit_one = [&cnet, node_counts, bins, &learn](std::size_t v) {
    Stopwatch timer;
    const std::vector<std::size_t> parent_cards(cnet.dag().parents(v).size(),
                                                bins);
    auto cpd = std::make_unique<bn::TabularCpd>(bn::fit_tabular_cpd_from_counts(
        node_counts[v], bins, parent_cards, learn.dirichlet_alpha));
    return StagedCpdFit{std::move(cpd), timer.seconds()};
  };
  install_staged_fits(result.net, nodes, fit_one, pool, result.report);
  result.report.parameter_seconds = params.seconds();
  result.report.total_seconds = total.seconds();
  KERTBN_ENSURES(learn_cancelled(learn) || result.net.is_complete());
  return result;
}

KertResult construct_kert_discrete(const wf::Workflow& workflow,
                                   const wf::ResourceSharing& sharing,
                                   const DatasetDiscretizer& discretizer,
                                   const bn::Dataset& train,
                                   LearningMode mode, double leak_l,
                                   const bn::ParameterLearnOptions& learn,
                                   ThreadPool* pool,
                                   const bn::TabularCpd* cached_d_cpt) {
  KERTBN_SPAN("kert.construct.discrete");
  Stopwatch total;
  Stopwatch structure;
  bn::BayesianNetwork net = assemble_skeleton(
      workflow, sharing, {}, /*discrete=*/true, discretizer.bins(),
      response_cpt(workflow, discretizer, leak_l, cached_d_cpt));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

}  // namespace kertbn::core
