#pragma once
/// \file query_engine.hpp
/// High-throughput query serving over published model snapshots.
///
/// The ROADMAP north star is an autonomic manager serving Section 5
/// queries (threshold violation ε, dComp posteriors, pAccel what-ifs) for
/// heavy traffic while ModelManager keeps rebuilding the model underneath.
/// Three pieces make that cheap and safe:
///
///   * ModelSnapshot — an immutable (network, discretizer, warm calibrated
///     junction tree, per-node prior moments) bundle. The tree is warmed at
///     build time, so no-evidence reads on it are mutation-free and
///     sharable.
///   * SnapshotSlot — RCU-style publication: writers install an immutable
///     std::shared_ptr<const ModelSnapshot>, readers pick the newest one up
///     through a lock-free hazard-entry protocol. Readers never block; a
///     reader holds its snapshot alive for the duration of a batch
///     regardless of how many publications happen meanwhile.
///   * QueryEngine — answers batches of posterior / evidence-probability /
///     exceedance / what-if queries. Each pool worker gets its own copy of
///     the snapshot tree (calibration mutates per-worker state only) and
///     its own FactorWorkspace via that tree. Per query the engine routes
///     between the calibrated tree and pruned variable elimination
///     (relevant_subnetwork), whichever is cheaper.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bn/factor_kernels.hpp"
#include "bn/junction_tree.hpp"
#include "bn/network.hpp"
#include "common/thread_pool.hpp"
#include "kert/applications.hpp"
#include "kert/discretize.hpp"

namespace kertbn::ov {
class PressureGovernor;
}  // namespace kertbn::ov

namespace kertbn::core {

/// Immutable serving bundle. `prior_tree` is present (and warm) only for
/// complete all-discrete tabular networks — the models the discrete query
/// path serves; continuous models publish without a tree.
struct ModelSnapshot {
  std::size_t version = 0;
  double built_at = 0.0;
  bn::BayesianNetwork net;  ///< Deep copy; the tree references this copy.
  std::optional<DatasetDiscretizer> discretizer;
  std::unique_ptr<const bn::JunctionTree> prior_tree;
  /// Per node, the moments of its no-evidence marginal in natural units
  /// (bin centers when the discretizer covers the node). Filled with the
  /// tree; what-if answers take their baseline from here.
  std::vector<DistributionMoments> prior_moments;

  bool has_tree() const { return prior_tree != nullptr; }
};

/// Deep-copies \p net (and discretizer) into a snapshot; builds and warms
/// the junction tree and computes every node's prior moments when the
/// network is complete, all-discrete, tabular.
std::shared_ptr<const ModelSnapshot> make_model_snapshot(
    std::size_t version, double built_at, const bn::BayesianNetwork& net,
    const std::optional<DatasetDiscretizer>& discretizer);

/// Lock-free single-slot snapshot exchange. Readers acquire() the newest
/// snapshot without ever blocking (a retry loop runs only when a
/// publication lands mid-read); publish() serializes publishers on a
/// mutex readers never touch. A reader's copy keeps its snapshot alive
/// however many publications happen meanwhile.
///
/// The implementation is a hazard-entry pool rather than
/// std::atomic<std::shared_ptr>: libstdc++'s lock-bit protocol inside the
/// latter is opaque to ThreadSanitizer (a minimal store/load pair already
/// reports a race), while every edge here is a plain std::atomic TSAN can
/// model. Protocol: readers pin an entry, then re-check it is still
/// current before copying its shared_ptr; publishers reuse only entries
/// that are neither current nor pinned. The seq_cst fences make a
/// reader's pin visible to any publisher whose entry-recycling check the
/// reader's re-check could otherwise miss.
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  /// Installs \p snapshot as the newest published model.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot) {
    std::lock_guard<std::mutex> lock(publish_mu_);
    Entry* const cur = current_.load(std::memory_order_relaxed);
    Entry* slot = nullptr;
    for (;;) {
      for (Entry& e : entries_) {
        if (&e == cur) continue;
        if (e.pins.load(std::memory_order_seq_cst) == 0) {
          slot = &e;
          break;
        }
      }
      if (slot != nullptr) break;
      std::this_thread::yield();  // pins last ~one shared_ptr copy
    }
    // `slot` is not current and unpinned: no reader can still (or ever
    // again, until it becomes current) read its snap. Overwriting also
    // drops the pool's reference to a long-replaced snapshot, bounding
    // retention at kEntries versions.
    slot->snap = std::move(snapshot);
    current_.store(slot, std::memory_order_seq_cst);
    published_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Latest published snapshot (nullptr before the first publication).
  std::shared_ptr<const ModelSnapshot> acquire() const {
    for (;;) {
      Entry* const e = current_.load(std::memory_order_seq_cst);
      if (e == nullptr) return nullptr;
      e->pins.fetch_add(1, std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == e) {
        std::shared_ptr<const ModelSnapshot> out = e->snap;
        e->pins.fetch_sub(1, std::memory_order_seq_cst);
        return out;
      }
      // A publication moved current_ away between the first load and the
      // pin — the entry may be recycled any moment. Unpin and retry.
      e->pins.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

  bool has_snapshot() const { return acquire() != nullptr; }
  std::size_t published_count() const {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::shared_ptr<const ModelSnapshot> snap;  ///< Guarded by the protocol.
    std::atomic<std::size_t> pins{0};           ///< Readers mid-copy.
  };
  /// The publisher needs one entry that is neither current nor pinned;
  /// with pins held only across a shared_ptr copy, a handful of entries
  /// makes the publish-side scan effectively wait-free too.
  static constexpr std::size_t kEntries = 8;

  std::array<Entry, kEntries> entries_{};
  std::atomic<Entry*> current_{nullptr};
  std::atomic<std::size_t> published_{0};
  std::mutex publish_mu_;  ///< Serializes publishers; readers never touch it.
};

enum class QueryKind {
  kPosterior = 0,            ///< P(target | evidence)
  kEvidenceProbability = 1,  ///< P(evidence)
  kExceedance = 2,           ///< P(target > threshold | evidence), seconds
  kWhatIf = 3,               ///< posterior + no-evidence baseline of target
};

enum class QueryRoute {
  kCalibratedTree = 0,      ///< Incremental junction-tree recalibration.
  kPrunedElimination = 1,   ///< VE on the relevant subnetwork.
};

/// Serving priority class. Interactive queries (an operator's pAccel /
/// threshold probe) outrank batch what-if sweeps: under pressure batch
/// work is shed first, and within a batch interactive queries execute
/// first so an expiring deadline costs the cheap work, not the urgent.
enum class QueryClass {
  kInteractive = 0,
  kBatch = 1,
};

/// Per-query outcome. Anything other than kOk carries an empty posterior:
/// a refused query never occupies a worker and never returns a partially
/// calibrated answer.
enum class QueryStatus {
  kOk = 0,
  kDeadlineExceeded = 1,  ///< Deadline passed before the query ran.
  kShed = 2,              ///< Refused by overload control before any work.
  /// Malformed for the snapshot's network: a target or evidence node out
  /// of range, an evidence state out of range, evidence not sorted by
  /// strictly ascending node, or a target among its own evidence.
  kInvalid = 3,
};

const char* to_string(QueryStatus status);

struct Query {
  QueryKind kind = QueryKind::kPosterior;
  /// Query node (== dataset column for KERT models). Ignored for
  /// kEvidenceProbability.
  std::size_t target = 0;
  /// Sorted (node, state) pairs; for kWhatIf this holds the hypothetical.
  bn::SortedEvidence evidence;
  /// kExceedance only, in the summary's units (seconds when the snapshot
  /// carries a discretizer).
  double threshold = 0.0;
  /// Serving priority (see QueryClass).
  QueryClass query_class = QueryClass::kInteractive;
  /// Absolute deadline against the engine's clock (Config::clock), in
  /// nanoseconds; 0 = no deadline. Checked at stripe boundaries before
  /// the query does any work — an expired query returns
  /// QueryStatus::kDeadlineExceeded instead of occupying the worker.
  std::uint64_t deadline_ns = 0;
};

struct QueryAnswer {
  QueryStatus status = QueryStatus::kOk;
  std::size_t snapshot_version = 0;
  QueryRoute route = QueryRoute::kCalibratedTree;
  /// Posterior states of `target` (empty for kEvidenceProbability).
  std::vector<double> posterior;
  /// Moments of `posterior` in natural units (bin centers when a
  /// discretizer exists); summarize_discrete_posterior gives the rest.
  DistributionMoments summary;
  /// kWhatIf only: moments of the no-evidence marginal of `target`
  /// (ModelSnapshot::prior_moments) — the "before" of the what-if.
  DistributionMoments baseline;
  double exceedance = 0.0;            ///< kExceedance only.
  double evidence_probability = 1.0;  ///< kEvidenceProbability only.
};

using QueryBatch = std::vector<Query>;

/// Batched query server. Not itself thread-safe: use one engine per
/// serving thread (they can all share one SnapshotSlot and one ThreadPool;
/// per-worker trees are engine-local).
class QueryEngine {
 public:
  struct Config {
    /// Snapshot source (required, non-owning; must outlive the engine).
    const SnapshotSlot* slot = nullptr;
    /// Fan batches across this pool (non-owning; nullptr = serial).
    ThreadPool* pool = nullptr;
    /// Route a posterior query through pruned variable elimination when
    /// the relevant subnetwork holds at most `prune_threshold` of the
    /// nodes.
    bool prune = true;
    double prune_threshold = 0.5;
    /// Overload control (non-owning, optional): at governor level
    /// kShedding or worse, batch-class queries are shed before any work;
    /// at kEmergency, interactive queries additionally pay a query token
    /// each (the bucket's default budget is generous — it bites only when
    /// configured to). Deadlines work with or without a governor.
    ov::PressureGovernor* governor = nullptr;
    /// Deadline clock in nanoseconds. Defaults to steady_clock; inject a
    /// deterministic source in tests. Also feeds the governor's query
    /// bucket (as seconds) when a governor is set.
    std::function<std::uint64_t()> clock;
  };

  explicit QueryEngine(Config config);

  /// Answers every query in \p batch against the newest published
  /// snapshot. Requires a published snapshot with a junction tree. Each
  /// query is validated first; a malformed one is answered
  /// QueryStatus::kInvalid without any work.
  std::vector<QueryAnswer> post(const QueryBatch& batch);

  std::size_t queries_served() const { return queries_served_; }
  std::size_t batches_served() const { return batches_served_; }
  /// Queries answered by pruned elimination instead of the tree.
  std::size_t pruned_routes() const { return pruned_routes_; }
  /// Queries that expired before running (QueryStatus::kDeadlineExceeded).
  std::size_t deadline_exceeded() const { return deadline_exceeded_; }
  /// Queries refused by overload control (QueryStatus::kShed).
  std::size_t shed_queries() const { return shed_queries_; }
  /// Version of the snapshot the last batch ran against.
  std::size_t last_snapshot_version() const { return last_version_; }

 private:
  struct Worker {
    std::shared_ptr<const ModelSnapshot> snapshot;
    /// Per-worker tree copy: calibration mutates only this worker's state.
    std::optional<bn::JunctionTree> tree;
    /// Plan-cache counter watermarks at the last metrics harvest, so each
    /// batch reports deltas (a warm tree copy arrives with nonzero counts).
    std::size_t plan_hits_seen = 0;
    std::size_t plan_misses_seen = 0;
  };

  /// Points \p w at \p snapshot, copying the warm tree on change.
  void adopt(Worker& w, const std::shared_ptr<const ModelSnapshot>& snapshot);
  QueryAnswer answer(Worker& w, const Query& q);

  Config config_;
  std::vector<Worker> workers_;
  std::size_t queries_served_ = 0;
  std::size_t batches_served_ = 0;
  std::atomic<std::size_t> pruned_routes_{0};
  std::atomic<std::size_t> deadline_exceeded_{0};
  std::atomic<std::size_t> shed_queries_{0};
  std::size_t last_version_ = 0;
};

}  // namespace kertbn::core
