#pragma once
/// \file model_manager.hpp
/// The periodic model (re)construction scheme of Section 2: every
/// T_CON = α_model · T_DATA the current sliding window W = K · T_CON is
/// turned into a fresh KERT-BN, discarding the previous model entirely so
/// obsolete dynamics cannot linger ("the disperse of old data is often not
/// possible ... making a scheme purely based on reconstruction more
/// appropriate").

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "kert/kert_builder.hpp"
#include "kert/query_engine.hpp"
#include "kert/reconstruction_executor.hpp"
#include "kert/window_stats.hpp"
#include "sosim/monitoring.hpp"

namespace kertbn::ov {
class PressureGovernor;
}  // namespace kertbn::ov

namespace kertbn::core {

/// Serving status of the managed model — the health signal an autonomic
/// controller watches. The state machine:
///
///   kNone ──first successful build──▶ kFresh
///   kFresh ─deadline with no new data─▶ kStale ─new data builds─▶ kFresh
///   kFresh/kStale ─failed rebuild attempt─▶ kFallback (last-known-good
///     keeps serving) ─successful rebuild─▶ kFresh
///   kNone ─failed attempt with nothing to fall back to─▶ kDegraded
enum class ModelHealth {
  kNone = 0,      ///< No model has been built yet.
  kFresh = 1,     ///< Serving a model built from current window data.
  kStale = 2,     ///< Deadline passed without new data; prior model serves.
  kFallback = 3,  ///< Last rebuild attempt failed; last-known-good serves.
  kDegraded = 4,  ///< Rebuild failed and there is no model to fall back to.
};

const char* to_string(ModelHealth health);

/// One health-state change, in order. With a fixed fault schedule this
/// history is deterministic — the reproducibility tests replay it.
struct HealthTransition {
  double at = 0.0;  ///< Simulated time of the change.
  ModelHealth from = ModelHealth::kNone;
  ModelHealth to = ModelHealth::kNone;
  std::string reason;
};

/// One completed reconstruction.
struct Reconstruction {
  double at = 0.0;  ///< Simulated time the model was (re)built.
  std::size_t version = 0;
  std::size_t window_rows = 0;
  /// Raw rows scanned for this rebuild: the whole window on a full
  /// recount, only the fresh rows on an incremental hit.
  std::size_t rows_touched = 0;
  /// Built from cached segment partials instead of a full recount.
  bool incremental = false;
  /// Discrete mode: the discretizer's bin edges were (re)fit, invalidating
  /// cached count partials.
  bool discretizer_refit = false;
  KertConstructionReport report;
};

/// What the durability layer persists of a ModelManager: enough to resume
/// the reconstruction schedule and keep serving the last-known-good model
/// after a process restart. The model travels as serialized text (the
/// kert/serialize format) so a checkpoint file stays self-contained.
struct ManagerCheckpoint {
  double next_due = 0.0;
  std::size_t version = 0;
  /// Serialized last-known-good model; empty when none had been built.
  std::string model_text;
};

/// Drives periodic KERT-BN reconstruction against a stream of monitoring
/// windows.
class ModelManager {
 public:
  struct Config {
    sim::ModelSchedule schedule;
    LearningMode learning = LearningMode::kCentralized;
    /// 0 = continuous model; >= 2 = discrete model with that many bins.
    std::size_t bins = 0;
    /// Continuous-mode leak noise; <= 0 auto-calibrates from the window.
    double leak_sigma = 0.0;
    double leak_l = 0.02;      ///< Discrete-mode leak probability.
    bn::ParameterLearnOptions learn;
    /// Execution policy for per-node fits; non-owning, nullptr = serial.
    const ReconstructionExecutor* executor = nullptr;
    /// Maintain windowed sufficient statistics (fed via observe_row) and
    /// reconstruct from K cached segment partials plus the fresh segment
    /// when they provably cover the window; falls back to a full recount
    /// otherwise (and, in discrete mode, whenever the bin edges shift).
    bool incremental = false;
    /// Discrete incremental mode: reuse the previous discretizer while the
    /// retained data stays inside its fitted range stretched by this
    /// fraction of the per-column span; refit — and recount — otherwise.
    double discretizer_range_tolerance = 0.05;
    /// Guard the scheduled rebuild path (maybe_reconstruct): validate the
    /// window before fitting and the model after, and on failure keep the
    /// last-known-good model serving instead of aborting. Disable for the
    /// seed's fail-fast behavior.
    bool guard = true;
    /// Guarded rebuilds need at least this many window rows; shorter
    /// windows fail the attempt (variance and Gram moments are meaningless
    /// below two observations).
    std::size_t min_window_rows = 2;
    /// Publish every successfully (re)built model as an immutable
    /// ModelSnapshot in snapshot_slot() — the lock-free hand-off the
    /// QueryEngine serves from. Guarded rebuilds publish only after the
    /// built model validates, so readers never observe a bad model.
    bool publish_snapshots = false;
    /// Overload control (DESIGN §12): when set, every scheduled rebuild
    /// must win a reconstruction token first. Past `throttled` the
    /// governor refuses the class outright, so the deadline is *deferred*
    /// — the last-known-good model keeps serving with health kStale —
    /// instead of competing with ingest and queries for CPU. Non-owning;
    /// requires config.guard.
    ov::PressureGovernor* governor = nullptr;
    /// Cooperative cancellation for in-flight rebuilds: when non-null and
    /// the pointee becomes true mid-build, the parameter learn stops
    /// between node fits and the manager rolls the partial build back to
    /// the last-known-good model (health kStale, never corrupt). Pass
    /// ov::CancellationToken::flag(); requires config.guard.
    const std::atomic<bool>* cancel = nullptr;
  };

  ModelManager(wf::Workflow workflow, wf::ResourceSharing sharing,
               Config config);

  const Config& config() const { return config_; }

  /// Next simulated time a reconstruction is due.
  double next_due() const { return next_due_; }

  /// If \p now has reached the next construction deadline and the window is
  /// non-empty, rebuilds the model from scratch and returns the record.
  ///
  /// With config().guard (the default) this is the degraded-mode entry
  /// point: an unchanged window skips the rebuild and marks the model
  /// stale; a window that fails validation — or a fit that produces a
  /// non-finite model — counts a failure and leaves the last-known-good
  /// model serving (health kFallback, or kDegraded when no model exists
  /// yet). Returns nullopt in every non-rebuilding case.
  std::optional<Reconstruction> maybe_reconstruct(double now,
                                                  const bn::Dataset& window);

  /// Unconditionally rebuilds from \p window (stamped at \p now).
  Reconstruction reconstruct(double now, const bn::Dataset& window);

  /// Feeds one window row (services then D) into the incremental
  /// statistics layer — wire this to ManagementServer::set_row_observer.
  /// No-op unless config().incremental.
  void observe_row(std::span<const double> row);

  /// Replaces the workflow knowledge (same service count required) when
  /// choice probabilities or structure drift. Every cache derived from the
  /// old knowledge is invalidated — the deterministic response CPT, the
  /// incremental residual statistics (their residual fn captured the old
  /// f(X)), and the unchanged-window memory — so the next deadline rebuilds
  /// with the new knowledge even if the data window has not changed.
  void update_workflow(wf::Workflow workflow);

  const wf::Workflow& workflow() const { return workflow_; }

  /// The incremental statistics layer (empty unless config().incremental
  /// and at least one row was observed or a reconstruction reseeded it).
  const std::optional<WindowStats>& window_stats() const { return stats_; }

  bool has_model() const { return model_.has_value(); }
  const bn::BayesianNetwork& model() const;
  /// Discretizer used by the current discrete model (empty in continuous
  /// mode).
  const std::optional<DatasetDiscretizer>& discretizer() const {
    return discretizer_;
  }
  std::size_t version() const { return version_; }
  const std::vector<Reconstruction>& history() const { return history_; }

  /// Snapshot exchange for concurrent query serving (populated only with
  /// config().publish_snapshots). Readers acquire() while reconstructions
  /// publish; neither side blocks.
  const SnapshotSlot& snapshot_slot() const { return *snapshot_slot_; }

  /// Current serving status (see ModelHealth).
  ModelHealth health() const { return health_; }
  /// Every health-state change so far, in order.
  const std::vector<HealthTransition>& health_history() const {
    return health_history_;
  }
  /// Guarded rebuild attempts that failed (window rejected or model
  /// invalid); each left the previous model serving.
  std::size_t failed_reconstructions() const {
    return failed_reconstructions_;
  }
  /// Deadlines skipped because the window held no new data.
  std::size_t stale_skips() const { return stale_skips_; }
  /// Deadlines deferred because the governor refused a reconstruction
  /// token (overload); the last-known-good model kept serving, stale.
  std::size_t deferred_reconstructions() const {
    return deferred_reconstructions_;
  }
  /// In-flight rebuilds aborted by the cancellation flag and rolled back
  /// to the last-known-good model.
  std::size_t aborted_reconstructions() const {
    return aborted_reconstructions_;
  }
  /// Reason of the most recent failed attempt ("" when none failed yet).
  const std::string& last_failure_reason() const {
    return last_failure_reason_;
  }

  /// Advisory from the model-quality layer (DESIGN §11): confirmed drift
  /// between the served model's predictions and live measurements. Marks a
  /// fresh model stale (its predictions no longer describe the present)
  /// and forgets the unchanged-window memory, so the next deadline
  /// rebuilds even when the window content is unchanged. Advisory only:
  /// no rebuild happens here — the reconstruction schedule stays in
  /// charge.
  void note_drift(double now, const std::string& reason);
  /// Confirmed-drift advisories received so far.
  std::size_t drift_notices() const { return drift_notices_; }
  /// Reason of the most recent drift advisory ("" when none arrived yet).
  const std::string& last_drift_reason() const { return last_drift_reason_; }

  /// Serializes the current model (continuous or discrete flavor) in the
  /// kert/serialize text format; "" when no model has been built yet.
  std::string export_model_text() const;

  /// Schedule + version + serialized model, for the durability layer.
  ManagerCheckpoint export_checkpoint() const;

  /// Restores schedule, version, and — when the checkpoint carries one —
  /// the last-known-good model from \p ckpt. The restored model serves
  /// with health kStale (it describes the pre-crash past, not the present)
  /// until the next successful rebuild. A corrupt or incompatible
  /// model_text is rejected by value: schedule and version are still
  /// restored, the model is not, and the method returns false — recovery
  /// must degrade, never abort.
  bool restore_from_checkpoint(const ManagerCheckpoint& ckpt, double now);

 private:
  /// Fresh WindowStats sized from the schedule (residual fn attached in
  /// continuous mode for leak calibration).
  WindowStats make_stats() const;
  /// Discrete mode: true when the retained data strays outside the current
  /// discretizer's fitted range (stretched by the configured tolerance).
  bool range_exceeded() const;

  Reconstruction reconstruct_full(const bn::Dataset& window,
                                  ThreadPool* pool);
  Reconstruction reconstruct_incremental(const bn::Dataset& window,
                                         ThreadPool* pool);

  /// Guarded rebuild: pre-validates the window, stashes the last-known-good
  /// model, rebuilds, post-validates, and restores on failure.
  std::optional<Reconstruction> try_reconstruct(double now,
                                                const bn::Dataset& window);
  /// Reason the window is unusable for a rebuild, or nullptr when fine.
  const char* validate_window(const bn::Dataset& window) const;
  /// True when the freshly built model yields finite output on the last
  /// window row (non-finite CPD parameters surface here).
  bool model_output_finite(const bn::Dataset& window) const;
  void set_health(double now, ModelHealth to, const char* reason);
  void note_failure(double now, const char* reason);
  /// Publishes the current model as a snapshot (no-op unless configured).
  void publish_current(double now);
  /// Full-content snapshot/compare of the last successfully built window —
  /// the staleness signal for unchanged-window deadlines.
  void remember_window(const bn::Dataset& window);
  bool window_unchanged(const bn::Dataset& window) const;

  wf::Workflow workflow_;
  wf::ResourceSharing sharing_;
  Config config_;
  double next_due_;
  std::size_t version_ = 0;
  std::optional<bn::BayesianNetwork> model_;
  std::optional<DatasetDiscretizer> discretizer_;
  std::vector<Reconstruction> history_;
  // Incremental-mode state.
  std::optional<WindowStats> stats_;
  std::size_t rows_since_reconstruct_ = 0;
  std::size_t discretizer_version_ = 0;
  /// Deterministic response CPT cached per discretizer version (rebuilding
  /// it costs bins^n integrations — the dominant discrete-mode cost).
  /// Shared so the rollback stash in try_reconstruct costs no table copy.
  std::shared_ptr<const bn::TabularCpd> d_cpt_cache_;
  // Health / guard state.
  ModelHealth health_ = ModelHealth::kNone;
  std::vector<HealthTransition> health_history_;
  std::size_t failed_reconstructions_ = 0;
  std::size_t stale_skips_ = 0;
  std::size_t deferred_reconstructions_ = 0;
  std::size_t aborted_reconstructions_ = 0;
  std::string last_failure_reason_;
  std::size_t drift_notices_ = 0;
  std::string last_drift_reason_;
  double last_missed_due_ = -1.0;  ///< Deadline already counted as missed.
  std::size_t last_build_rows_ = 0;
  std::vector<double> last_build_window_;  ///< Flattened row-major copy.
  // Snapshot publication state (heap-held: the slot's atomics pin its
  // address while keeping the manager movable).
  std::unique_ptr<SnapshotSlot> snapshot_slot_ =
      std::make_unique<SnapshotSlot>();
  /// Guarded rebuilds suspend the in-reconstruct publication until the
  /// built model passes validation.
  bool publish_suspended_ = false;
};

}  // namespace kertbn::core
