#include "kert/model_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contract.hpp"
#include "common/stopwatch.hpp"
#include "kert/serialize.hpp"
#include "obs/span.hpp"
#include "overload/governor.hpp"

namespace kertbn::core {

namespace {

/// Telemetry handles for the reconstruction loop (resolved once).
struct ReconstructMetrics {
  obs::Counter& count;
  obs::Counter& incremental_hits;
  obs::Counter& full_recounts;
  obs::Counter& discretizer_refits;
  obs::Counter& rows_touched;

  static ReconstructMetrics& get() {
    static ReconstructMetrics m{
        obs::MetricsRegistry::instance().counter("kert.reconstruct.count"),
        obs::MetricsRegistry::instance().counter(
            "kert.reconstruct.incremental_hits"),
        obs::MetricsRegistry::instance().counter(
            "kert.reconstruct.full_recounts"),
        obs::MetricsRegistry::instance().counter(
            "kert.reconstruct.discretizer_refits"),
        obs::MetricsRegistry::instance().counter("kert.rows_touched")};
    return m;
  }
};

/// Telemetry for the guard / health layer.
struct HealthMetrics {
  obs::Counter& transitions;
  obs::Counter& failures;
  obs::Counter& stale_skips;
  obs::Counter& missed_deadlines;
  obs::Counter& deferred;
  obs::Counter& aborted;
  obs::Gauge& state;

  static HealthMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static HealthMetrics m{reg.counter("kert.health.transitions"),
                           reg.counter("kert.reconstruct.failures"),
                           reg.counter("kert.reconstruct.stale_skips"),
                           reg.counter("kert.reconstruct.missed_deadlines"),
                           reg.counter("kert.reconstruct.deferred"),
                           reg.counter("kert.reconstruct.aborted"),
                           reg.gauge("kert.health.state")};
    return m;
  }
};

}  // namespace

const char* to_string(ModelHealth health) {
  switch (health) {
    case ModelHealth::kNone:
      return "none";
    case ModelHealth::kFresh:
      return "fresh";
    case ModelHealth::kStale:
      return "stale";
    case ModelHealth::kFallback:
      return "fallback";
    case ModelHealth::kDegraded:
      return "degraded";
  }
  return "unknown";
}

ModelManager::ModelManager(wf::Workflow workflow, wf::ResourceSharing sharing,
                           Config config)
    : workflow_(std::move(workflow)),
      sharing_(std::move(sharing)),
      config_(std::move(config)),
      next_due_(config_.schedule.t_con()) {
  KERTBN_EXPECTS(config_.bins == 0 || config_.bins >= 2);
  // Thread the cancellation flag into the learn options every construct_*
  // call receives, so cancellation reaches the per-node fit loop without
  // each call site knowing about it.
  if (config_.cancel != nullptr && config_.learn.cancel == nullptr) {
    config_.learn.cancel = config_.cancel;
  }
}

std::optional<Reconstruction> ModelManager::maybe_reconstruct(
    double now, const bn::Dataset& window) {
  if (now < next_due_) return std::nullopt;
  if (window.rows() == 0) {
    // Seed semantics: the deadline stays pending until data exists. The
    // guard additionally counts the miss (once per deadline) and marks a
    // serving model stale — an autonomic controller must see that its
    // model now describes the past.
    if (config_.guard && last_missed_due_ != next_due_) {
      last_missed_due_ = next_due_;
      if (obs::enabled()) HealthMetrics::get().missed_deadlines.add(1);
      if (model_.has_value()) {
        set_health(now, ModelHealth::kStale, "empty window at deadline");
      }
    }
    return std::nullopt;
  }
  if (config_.guard && model_.has_value() && window_unchanged(window)) {
    // No data arrived since the last build — rebuilding would reproduce
    // the same model from the same rows. Skip the work, surface staleness.
    ++stale_skips_;
    if (obs::enabled()) HealthMetrics::get().stale_skips.add(1);
    set_health(now, ModelHealth::kStale, "window unchanged since last build");
    while (next_due_ <= now) next_due_ += config_.schedule.t_con();
    return std::nullopt;
  }
  // Budgeted scheduling (DESIGN §12): a rebuild is the cheapest work to
  // lose under pressure — the last-known-good model keeps serving. The
  // governor refuses the reconstruction class outright past `throttled`
  // and meters it by token below; either way the deadline defers, never
  // blocks. (The cancellation flag is deliberately not consulted here:
  // deferral is the governor's decision, cancellation aborts builds —
  // including one whose flag was raised before the first node fit.)
  if (config_.guard && config_.governor != nullptr &&
      !config_.governor->admit(ov::WorkClass::kReconstruction, now)) {
    ++deferred_reconstructions_;
    if (obs::enabled()) HealthMetrics::get().deferred.add(1);
    if (model_.has_value()) {
      set_health(now, ModelHealth::kStale,
                 "reconstruction deferred under overload");
    }
    while (next_due_ <= now) next_due_ += config_.schedule.t_con();
    return std::nullopt;
  }
  std::optional<Reconstruction> rec;
  if (config_.guard) {
    rec = try_reconstruct(now, window);
  } else {
    rec = reconstruct(now, window);
  }
  // Schedule the next deadline on the T_CON grid strictly after `now`.
  while (next_due_ <= now) next_due_ += config_.schedule.t_con();
  return rec;
}

void ModelManager::observe_row(std::span<const double> row) {
  if (!config_.incremental) return;
  if (!stats_) stats_.emplace(make_stats());
  stats_->observe(row);
  ++rows_since_reconstruct_;
  if (obs::enabled()) {
    static obs::Counter& observed =
        obs::MetricsRegistry::instance().counter("kert.rows_observed");
    observed.add(1);
  }
}

void ModelManager::update_workflow(wf::Workflow workflow) {
  KERTBN_EXPECTS(workflow.service_count() == workflow_.service_count() &&
                 "drifted workflow must keep the same service set");
  workflow_ = std::move(workflow);
  // The D-CPT integrates the old f(X): rebuild it at the next deadline.
  d_cpt_cache_.reset();
  ++discretizer_version_;
  // Incremental residual partials captured the old expression; a fresh
  // stats object reseeds from raw rows on the next reconstruction.
  stats_.reset();
  rows_since_reconstruct_ = 0;
  // Forget the unchanged-window snapshot: identical data must still
  // trigger a rebuild because the knowledge itself changed.
  last_build_rows_ = 0;
  last_build_window_.clear();
}

WindowStats ModelManager::make_stats() const {
  WindowStats::Config cfg;
  const std::size_t n = workflow_.service_count();
  cfg.cols = n + 1;
  cfg.rows_per_segment = config_.schedule.alpha_model;
  cfg.max_rows = config_.schedule.points_per_window();
  if (config_.bins == 0) {
    // Leak-residual moments per segment drive the incremental-path leak
    // calibration (continuous mode only).
    cfg.residual = [expr = workflow_.response_time_expr(),
                    n](std::span<const double> row) {
      return row[n] - expr->evaluate(row.first(n));
    };
  }
  return WindowStats(std::move(cfg));
}

bool ModelManager::range_exceeded() const {
  const std::size_t cols = workflow_.service_count() + 1;
  for (std::size_t c = 0; c < cols; ++c) {
    const ColumnDiscretizer& col = discretizer_->column(c);
    const double lo = col.data_min();
    const double hi = col.data_max();
    const double span = std::max(hi - lo, 1e-12);
    const double margin = config_.discretizer_range_tolerance * span;
    if (stats_->col_min(c) < lo - margin ||
        stats_->col_max(c) > hi + margin) {
      return true;
    }
  }
  return false;
}

Reconstruction ModelManager::reconstruct(double now,
                                         const bn::Dataset& window) {
  KERTBN_EXPECTS(window.rows() > 0);
  KERTBN_EXPECTS(window.cols() == workflow_.service_count() + 1);
  KERTBN_SPAN_VAR(span, "kert.reconstruct");
  ThreadPool* pool = config_.executor ? config_.executor->pool() : nullptr;

  // The cached partials are usable only when they provably cover this
  // exact window; the discrete variant additionally requires the previous
  // discretizer to still be valid for the retained data. Anything else
  // falls back to a full recount (which also reseeds the statistics).
  const bool incremental_hit =
      config_.incremental && config_.learning == LearningMode::kCentralized &&
      stats_.has_value() && stats_->aligned(window) &&
      (config_.bins == 0 ||
       (discretizer_.has_value() && !range_exceeded()));

  Reconstruction rec = incremental_hit ? reconstruct_incremental(window, pool)
                                       : reconstruct_full(window, pool);
  ++version_;
  rec.at = now;
  rec.version = version_;
  rec.window_rows = window.rows();
  rows_since_reconstruct_ = 0;
  history_.push_back(rec);

  set_health(now, ModelHealth::kFresh, "reconstructed");
  remember_window(window);
  if (!publish_suspended_) publish_current(now);

  span.tag("at", now);
  span.tag("version", static_cast<std::uint64_t>(rec.version));
  span.tag("window_rows", static_cast<std::uint64_t>(rec.window_rows));
  span.tag("rows_touched", static_cast<std::uint64_t>(rec.rows_touched));
  span.tag("incremental", rec.incremental);
  span.tag("discretizer_refit", rec.discretizer_refit);
  span.tag("health", to_string(health_));
  if (obs::enabled()) {
    ReconstructMetrics& m = ReconstructMetrics::get();
    m.count.add(1);
    (rec.incremental ? m.incremental_hits : m.full_recounts).add(1);
    if (rec.discretizer_refit) m.discretizer_refits.add(1);
    m.rows_touched.add(rec.rows_touched);
  }
  return rec;
}

Reconstruction ModelManager::reconstruct_full(const bn::Dataset& window,
                                              ThreadPool* pool) {
  Reconstruction rec;
  rec.rows_touched = window.rows();

  // Reseed the statistics layer from the window so the next
  // reconstruction can go incremental again.
  if (config_.incremental && (!stats_ || !stats_->aligned(window))) {
    stats_.emplace(make_stats());
    for (std::size_t r = 0; r < window.rows(); ++r) {
      stats_->observe(window.row(r));
    }
  }

  KertResult result = [&] {
    if (config_.bins == 0) {
      discretizer_.reset();
      return construct_kert_continuous(workflow_, sharing_, window,
                                       config_.learning, config_.leak_sigma,
                                       config_.learn, pool);
    }
    discretizer_.emplace(window, config_.bins);
    ++discretizer_version_;
    rec.discretizer_refit = true;
    // Materialize D's CPT once per discretizer version: the construction
    // below and every incremental rebuild until the next refit share it.
    Stopwatch cpt_timer;
    d_cpt_cache_ = std::make_shared<const bn::TabularCpd>(
        make_deterministic_cpt(workflow_, *discretizer_, config_.leak_l));
    const double cpt_seconds = cpt_timer.seconds();
    const bn::Dataset discrete = discretizer_->discretize(window);
    KertResult built = construct_kert_discrete(
        workflow_, sharing_, *discretizer_, discrete, config_.learning,
        config_.leak_l, config_.learn, pool, d_cpt_cache_.get());
    // The construction report's skeleton time includes D's CPT.
    built.report.structure_seconds += cpt_seconds;
    built.report.total_seconds += cpt_seconds;
    return built;
  }();

  model_ = std::move(result.net);
  rec.report = result.report;
  return rec;
}

Reconstruction ModelManager::reconstruct_incremental(
    const bn::Dataset& window, ThreadPool* pool) {
  Reconstruction rec;
  rec.incremental = true;

  KertResult result = [&] {
    if (config_.bins == 0) {
      discretizer_.reset();
      const WindowStats::ResidualMoments rm = stats_->combined_residuals();
      const double sigma =
          config_.leak_sigma > 0.0
              ? config_.leak_sigma
              : leak_sigma_from_residual_moments(rm.sum, rm.sum_sq, rm.rows);
      // The sealed segments were scanned once, at seal time; only the rows
      // that arrived since the previous rebuild are new work.
      rec.rows_touched = std::min(rows_since_reconstruct_, window.rows());
      return construct_kert_continuous_from_stats(
          workflow_, sharing_, stats_->combined_gram(), window.rows(), sigma,
          config_.learn, pool);
    }
    // Discretizer unchanged: the deterministic response CPT is a pure
    // function of its edges. The full rebuild that fitted the discretizer
    // cached it; after a restore or a workflow update it is built here once.
    if (!d_cpt_cache_) {
      d_cpt_cache_ = std::make_shared<const bn::TabularCpd>(
          make_deterministic_cpt(workflow_, *discretizer_, config_.leak_l));
    }
    const std::vector<CountLayout> layouts =
        kert_discrete_count_layouts(workflow_, sharing_, config_.bins);
    WindowStats::CountResult counts =
        stats_->counts(layouts, *discretizer_, discretizer_version_);
    rec.rows_touched = counts.rows_scanned;
    return construct_kert_discrete_from_counts(
        workflow_, sharing_, *discretizer_, counts.node_counts,
        config_.leak_l, config_.learn, pool, d_cpt_cache_.get());
  }();

  model_ = std::move(result.net);
  rec.report = result.report;
  return rec;
}

std::optional<Reconstruction> ModelManager::try_reconstruct(
    double now, const bn::Dataset& window) {
  if (const char* reason = validate_window(window)) {
    note_failure(now, reason);
    return std::nullopt;
  }

  // Stash the last-known-good serving state. The codebase is contract-based
  // (no exceptions), so only failures the fit reports by value — a built
  // model with non-finite output — are recoverable here; everything the
  // fit would abort on must be ruled out by validate_window above. The
  // rebuild never reads the old network, so it is moved out rather than
  // copied (D's CPT alone is bins^(n+1) entries); std::exchange leaves
  // model_ empty, where a plain move would leave it engaged.
  std::optional<bn::BayesianNetwork> saved_model =
      std::exchange(model_, std::nullopt);
  std::optional<DatasetDiscretizer> saved_discretizer = discretizer_;
  std::shared_ptr<const bn::TabularCpd> saved_d_cpt = d_cpt_cache_;
  const std::size_t saved_version = version_;
  const std::size_t saved_discretizer_version = discretizer_version_;
  const ModelHealth saved_health = health_;
  const std::size_t saved_transitions = health_history_.size();
  const std::size_t saved_build_rows = last_build_rows_;
  std::vector<double> saved_build_window = last_build_window_;

  // Publication is deferred past post-validation: a query reader must
  // never acquire a snapshot of a model that is about to be rolled back.
  publish_suspended_ = true;
  Reconstruction rec = reconstruct(now, window);
  publish_suspended_ = false;
  // Cancellation is checked before the finite-output probe: an aborted
  // learn leaves the network partially refit (possibly with nodes missing
  // CPDs), which must never be probed, published, or served.
  const bool aborted = config_.cancel != nullptr &&
                       config_.cancel->load(std::memory_order_relaxed);
  if (!aborted && model_output_finite(window)) {
    publish_current(now);
    return rec;
  }

  // Either the build was aborted under overload, or the fit went through
  // but produced a model that cannot serve (NaN CPD parameters from a
  // degenerate window). Restore the last-known-good state: the bad build
  // never happened, except in the ledger.
  model_ = std::move(saved_model);
  discretizer_ = std::move(saved_discretizer);
  d_cpt_cache_ = std::move(saved_d_cpt);
  version_ = saved_version;
  discretizer_version_ = saved_discretizer_version;
  history_.pop_back();
  health_ = saved_health;
  health_history_.resize(saved_transitions);
  last_build_rows_ = saved_build_rows;
  last_build_window_ = std::move(saved_build_window);
  // The incremental statistics may have been reseeded from the bad window;
  // drop them so the next rebuild recounts from scratch.
  stats_.reset();
  if (aborted) {
    ++aborted_reconstructions_;
    if (obs::enabled()) HealthMetrics::get().aborted.add(1);
    if (model_.has_value()) {
      // An abort is a scheduling decision, not a model failure: the
      // last-known-good model serves, merely stale — never fallback or
      // degraded.
      set_health(now, ModelHealth::kStale,
                 "reconstruction aborted under overload");
    } else {
      note_failure(now, "reconstruction aborted under overload");
    }
    return std::nullopt;
  }
  note_failure(now, "built model produced non-finite output");
  return std::nullopt;
}

const char* ModelManager::validate_window(const bn::Dataset& window) const {
  if (window.rows() < config_.min_window_rows) {
    return "window below minimum rows";
  }
  if (window.cols() != workflow_.service_count() + 1) {
    return "window has wrong column count";
  }
  for (std::size_t r = 0; r < window.rows(); ++r) {
    for (double v : window.row(r)) {
      if (!std::isfinite(v)) return "non-finite value in window";
    }
  }
  return nullptr;
}

bool ModelManager::model_output_finite(const bn::Dataset& window) const {
  if (!model_.has_value()) return false;
  // Probe with the window's most recent row: every CPD parameter on the
  // row's path enters the density, so NaN/Inf parameters surface as a
  // non-finite log-likelihood. (Smoothing and leak terms keep legitimate
  // likelihoods finite.)
  bn::Dataset probe(window.column_names());
  probe.add_row(window.row(window.rows() - 1));
  if (discretizer_.has_value()) {
    const bn::Dataset discrete = discretizer_->discretize(probe);
    return std::isfinite(model_->log_likelihood(discrete));
  }
  return std::isfinite(model_->log_likelihood(probe));
}

void ModelManager::set_health(double now, ModelHealth to, const char* reason) {
  if (health_ == to) return;
  health_history_.push_back(HealthTransition{now, health_, to, reason});
  health_ = to;
  if (obs::enabled()) {
    HealthMetrics& m = HealthMetrics::get();
    m.transitions.add(1);
    m.state.set(static_cast<double>(static_cast<int>(to)));
  }
}

void ModelManager::note_failure(double now, const char* reason) {
  ++failed_reconstructions_;
  last_failure_reason_ = reason;
  if (obs::enabled()) HealthMetrics::get().failures.add(1);
  set_health(now,
             model_.has_value() ? ModelHealth::kFallback
                                : ModelHealth::kDegraded,
             reason);
}

void ModelManager::note_drift(double now, const std::string& reason) {
  ++drift_notices_;
  last_drift_reason_ = reason;
  // Identical window data must still rebuild: the world moved even if the
  // retained rows happen to match the last build byte for byte.
  last_build_rows_ = 0;
  last_build_window_.clear();
  if (obs::enabled()) {
    static obs::Counter& notices =
        obs::MetricsRegistry::instance().counter("kert.drift.notices");
    notices.add(1);
  }
  if (health_ == ModelHealth::kFresh) {
    set_health(now, ModelHealth::kStale, reason.c_str());
  }
}

void ModelManager::publish_current(double now) {
  if (!config_.publish_snapshots) return;
  KERTBN_ASSERT(model_.has_value());
  snapshot_slot_->publish(
      make_model_snapshot(version_, now, *model_, discretizer_));
  if (obs::enabled()) {
    static obs::Counter& published =
        obs::MetricsRegistry::instance().counter(
            "kert.query.snapshots_published");
    published.add(1);
  }
}

void ModelManager::remember_window(const bn::Dataset& window) {
  last_build_rows_ = window.rows();
  last_build_window_.clear();
  last_build_window_.reserve(window.rows() * window.cols());
  for (std::size_t r = 0; r < window.rows(); ++r) {
    const auto row = window.row(r);
    last_build_window_.insert(last_build_window_.end(), row.begin(),
                              row.end());
  }
}

bool ModelManager::window_unchanged(const bn::Dataset& window) const {
  if (last_build_rows_ == 0 || window.rows() != last_build_rows_) {
    return false;
  }
  std::size_t i = 0;
  for (std::size_t r = 0; r < window.rows(); ++r) {
    for (double v : window.row(r)) {
      if (v != last_build_window_[i++]) return false;
    }
  }
  return i == last_build_window_.size();
}

const bn::BayesianNetwork& ModelManager::model() const {
  KERTBN_EXPECTS(model_.has_value());
  return *model_;
}

std::string ModelManager::export_model_text() const {
  if (!model_.has_value()) return {};
  if (discretizer_.has_value()) {
    return save_discrete_to_string(workflow_, sharing_, *discretizer_,
                                   config_.leak_l, *model_);
  }
  return save_to_string(workflow_, sharing_, *model_);
}

ManagerCheckpoint ModelManager::export_checkpoint() const {
  return ManagerCheckpoint{next_due_, version_, export_model_text()};
}

bool ModelManager::restore_from_checkpoint(const ManagerCheckpoint& ckpt,
                                           double now) {
  next_due_ = ckpt.next_due;
  version_ = ckpt.version;
  // Cached incremental state described the dead process's window; drop it
  // so the next rebuild recounts from the replayed window. Bumping the
  // discretizer version invalidates any count partials keyed to it.
  stats_.reset();
  rows_since_reconstruct_ = 0;
  d_cpt_cache_.reset();
  ++discretizer_version_;
  last_build_rows_ = 0;
  last_build_window_.clear();
  last_missed_due_ = -1.0;
  if (ckpt.model_text.empty()) return true;

  LoadResult loaded = [&] {
    KERTBN_SPAN("kert.model.parse");
    return try_load_from_string(ckpt.model_text);
  }();
  const bool compatible =
      loaded.has_value() &&
      loaded->workflow.service_count() == workflow_.service_count() &&
      loaded->bins == config_.bins;
  if (!compatible) {
    if (obs::enabled()) {
      static obs::Counter& rejected =
          obs::MetricsRegistry::instance().counter(
              "kert.durable.checkpoint_model_rejected");
      rejected.add(1);
    }
    note_failure(now, "checkpointed model rejected on restore");
    return false;
  }
  model_ = std::move(loaded->net);
  discretizer_ = std::move(loaded->discretizer);
  set_health(now, ModelHealth::kStale, "recovered from checkpoint");
  publish_current(now);
  return true;
}

}  // namespace kertbn::core
