#include "kert/query_engine.hpp"

#include <chrono>
#include <future>

#include <algorithm>

#include "bn/relevance.hpp"
#include "common/contract.hpp"
#include "common/cpu_features.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "overload/governor.hpp"

namespace kertbn::core {

namespace {

/// Telemetry handles for the serving path (resolved once).
struct QueryMetrics {
  obs::Counter& queries;
  obs::Counter& batches;
  obs::Counter& pruned_routes;
  obs::Counter& tree_routes;
  obs::Counter& deadline_exceeded;
  obs::Counter& shed;
  obs::Counter& plan_hits;
  obs::Counter& plan_misses;
  obs::Gauge& simd_tier;
  obs::Histogram& latency_ns;
  obs::Histogram& batch_size;

  static QueryMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static QueryMetrics m{reg.counter("kert.query.count"),
                          reg.counter("kert.query.batches"),
                          reg.counter("kert.query.pruned_routes"),
                          reg.counter("kert.query.tree_routes"),
                          reg.counter("kert.query.deadline_exceeded"),
                          reg.counter("kert.query.shed"),
                          reg.counter("kert.query.plan_hits"),
                          reg.counter("kert.query.plan_misses"),
                          reg.gauge("kert.query.simd_tier"),
                          reg.histogram("kert.query.latency_ns"),
                          reg.histogram("kert.query.batch_size")};
    return m;
  }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool discrete_tabular(const bn::BayesianNetwork& net) {
  if (!net.is_complete()) return false;
  for (std::size_t v = 0; v < net.size(); ++v) {
    if (!net.variable(v).is_discrete()) return false;
    if (net.cpd(v).kind() != bn::CpdKind::kTabular) return false;
  }
  return true;
}

/// Bin-center column of node \p v, or null when the snapshot has no
/// discretizer covering it (moments are then in state-index units).
const ColumnDiscretizer* column_of(const ModelSnapshot& snap, std::size_t v) {
  return snap.discretizer.has_value() && v < snap.discretizer->columns()
             ? &snap.discretizer->column(v)
             : nullptr;
}

/// Whether \p q can be answered on \p net without tripping a contract:
/// evidence sorted by strictly ascending node with every node and state in
/// range, and (for kinds with a target) the target in range and unobserved.
bool well_formed(const Query& q, const bn::BayesianNetwork& net) {
  for (std::size_t i = 0; i < q.evidence.size(); ++i) {
    const auto& [v, state] = q.evidence[i];
    if (v >= net.size() || state >= net.variable(v).cardinality) return false;
    if (i > 0 && q.evidence[i - 1].first >= v) return false;
    if (q.kind != QueryKind::kEvidenceProbability && v == q.target) {
      return false;
    }
  }
  return q.kind == QueryKind::kEvidenceProbability || q.target < net.size();
}

}  // namespace

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case QueryStatus::kShed:
      return "shed";
    case QueryStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

std::shared_ptr<const ModelSnapshot> make_model_snapshot(
    std::size_t version, double built_at, const bn::BayesianNetwork& net,
    const std::optional<DatasetDiscretizer>& discretizer) {
  KERTBN_SPAN_VAR(span, "kert.snapshot.build");
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = version;
  snapshot->built_at = built_at;
  snapshot->net = net;  // deep copy: the snapshot owns its model
  snapshot->discretizer = discretizer;
  if (discrete_tabular(snapshot->net)) {
    // The tree references the snapshot's own copy and is warmed here, so
    // no-evidence reads on the shared snapshot are mutation-free.
    auto tree = std::make_unique<bn::JunctionTree>(snapshot->net);
    tree->warm();
    snapshot->prior_moments.reserve(snapshot->net.size());
    for (std::size_t v = 0; v < snapshot->net.size(); ++v) {
      snapshot->prior_moments.push_back(
          discrete_moments(tree->posterior(v), column_of(*snapshot, v)));
    }
    snapshot->prior_tree = std::move(tree);
  }
  span.tag("version", static_cast<std::uint64_t>(version));
  span.tag("tree", snapshot->has_tree());
  return snapshot;
}

QueryEngine::QueryEngine(Config config) : config_(config) {
  KERTBN_EXPECTS(config_.slot != nullptr);
  KERTBN_EXPECTS(config_.prune_threshold >= 0.0);
}

void QueryEngine::adopt(Worker& w,
                        const std::shared_ptr<const ModelSnapshot>& snapshot) {
  if (w.snapshot == snapshot) return;  // tree (and its caches) stay warm
  w.snapshot = snapshot;
  w.tree.reset();
  if (snapshot->has_tree()) {
    // Copying the warm tree clones the cached no-evidence calibration, so
    // the worker starts with every plan and message already in place.
    w.tree.emplace(*snapshot->prior_tree);
    // The copy carries the source tree's plan-cache counters; rebase the
    // harvest watermarks so the next batch reports only this worker's work.
    w.plan_hits_seen = w.tree->plan_hits();
    w.plan_misses_seen = w.tree->plan_misses();
  }
}

QueryAnswer QueryEngine::answer(Worker& w, const Query& q) {
  const ModelSnapshot& snap = *w.snapshot;
  KERTBN_EXPECTS(w.tree.has_value());
  bn::JunctionTree& tree = *w.tree;

  QueryAnswer out;
  out.snapshot_version = snap.version;

  if (q.kind == QueryKind::kEvidenceProbability) {
    tree.calibrate_sorted(q.evidence);
    out.evidence_probability = tree.evidence_probability();
    return out;
  }

  const ColumnDiscretizer* column = column_of(snap, q.target);

  if (q.kind == QueryKind::kWhatIf) {
    out.baseline = snap.prior_moments[q.target];
    tree.calibrate_sorted(q.evidence);
    out.posterior = tree.posterior(q.target);
    out.summary = discrete_moments(out.posterior, column);
    return out;
  }

  // kPosterior / kExceedance: route between the calibrated tree and pruned
  // variable elimination on the relevant subnetwork.
  bool pruned = false;
  if (config_.prune && !q.evidence.empty()) {
    std::vector<std::size_t> evidence_nodes;
    evidence_nodes.reserve(q.evidence.size());
    for (const auto& [v, _] : q.evidence) evidence_nodes.push_back(v);
    const std::size_t relevant =
        bn::relevant_node_count(snap.net, q.target, evidence_nodes);
    pruned = static_cast<double>(relevant) <=
             config_.prune_threshold * static_cast<double>(snap.net.size());
  }
  if (pruned) {
    out.route = QueryRoute::kPrunedElimination;
    out.posterior = bn::pruned_posterior_sorted(snap.net, q.target, q.evidence);
    pruned_routes_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) QueryMetrics::get().pruned_routes.add(1);
  } else {
    out.route = QueryRoute::kCalibratedTree;
    tree.calibrate_sorted(q.evidence);
    out.posterior = tree.posterior(q.target);
    if (obs::enabled()) QueryMetrics::get().tree_routes.add(1);
  }
  out.summary = discrete_moments(out.posterior, column);
  if (q.kind == QueryKind::kExceedance) {
    out.exceedance = discrete_exceedance(out.posterior, column, q.threshold);
  }
  return out;
}

std::vector<QueryAnswer> QueryEngine::post(const QueryBatch& batch) {
  KERTBN_SPAN_VAR(span, "kert.query.batch");
  span.tag("queries", static_cast<std::uint64_t>(batch.size()));
  const std::shared_ptr<const ModelSnapshot> snapshot =
      config_.slot->acquire();
  KERTBN_EXPECTS(snapshot != nullptr &&
                 "QueryEngine::post requires a published snapshot");
  KERTBN_EXPECTS(snapshot->has_tree() &&
                 "QueryEngine serves discrete (tabular) snapshots");
  last_version_ = snapshot->version;

  const std::size_t n = batch.size();
  std::vector<QueryAnswer> answers(n);
  const auto clock = [this]() -> std::uint64_t {
    return config_.clock ? config_.clock() : now_ns();
  };

  // Malformed queries are refused before anything else, so they neither
  // take a governor token nor occupy a worker. Like a shed answer, an
  // invalid one carries the snapshot version but no posterior.
  std::vector<std::uint8_t> runnable(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (well_formed(batch[i], snapshot->net)) continue;
    answers[i].status = QueryStatus::kInvalid;
    answers[i].snapshot_version = snapshot->version;
    runnable[i] = 0;
  }

  // Overload shedding is decided per batch, before any inference work:
  // at kShedding batch-class queries are refused outright; at kEmergency
  // interactive queries additionally pay a query token each. A shed
  // answer carries the snapshot version but no posterior.
  std::size_t shed_now = 0;
  if (config_.governor != nullptr) {
    const ov::PressureLevel level = config_.governor->level();
    if (level >= ov::PressureLevel::kShedding) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!runnable[i]) continue;
        bool shed = batch[i].query_class == QueryClass::kBatch;
        if (!shed && level == ov::PressureLevel::kEmergency) {
          shed = !config_.governor->admit(
              ov::WorkClass::kQuery,
              static_cast<double>(clock()) * 1e-9);
        }
        if (shed) {
          answers[i].status = QueryStatus::kShed;
          answers[i].snapshot_version = snapshot->version;
          runnable[i] = 0;
          ++shed_now;
        }
      }
    }
  }
  if (shed_now > 0) {
    shed_queries_.fetch_add(shed_now, std::memory_order_relaxed);
    if (obs::enabled()) QueryMetrics::get().shed.add(shed_now);
  }

  // Execution order: interactive before batch (stable within each class),
  // so a deadline expiring mid-batch costs the low-priority work first.
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (runnable[i] && batch[i].query_class == QueryClass::kInteractive) {
      order.push_back(i);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (runnable[i] && batch[i].query_class == QueryClass::kBatch) {
      order.push_back(i);
    }
  }
  const std::size_t live = order.size();

  const std::size_t fanout =
      (config_.pool != nullptr && live > 1)
          ? std::min(config_.pool->size(), live)
          : std::size_t{1};
  if (workers_.size() < fanout) workers_.resize(fanout);
  for (std::size_t k = 0; k < fanout; ++k) adopt(workers_[k], snapshot);

  const bool timed = obs::enabled();
  std::atomic<std::size_t> expired{0};
  auto run_stripe = [&](std::size_t k) {
    Worker& w = workers_[k];
    for (std::size_t j = k; j < live; j += fanout) {
      const std::size_t i = order[j];
      const Query& q = batch[i];
      // Deadline check at the stripe boundary, before any work: an
      // expired query returns immediately instead of occupying the
      // worker, and never carries a (partially calibrated) posterior.
      if (q.deadline_ns != 0 && clock() >= q.deadline_ns) {
        answers[i].status = QueryStatus::kDeadlineExceeded;
        answers[i].snapshot_version = snapshot->version;
        expired.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t t0 = timed ? now_ns() : 0;
      answers[i] = answer(w, q);
      if (timed) QueryMetrics::get().latency_ns.record(now_ns() - t0);
    }
  };
  if (fanout > 1) {
    std::vector<std::future<void>> done;
    done.reserve(fanout);
    for (std::size_t k = 0; k < fanout; ++k) {
      done.push_back(config_.pool->submit([&run_stripe, k] { run_stripe(k); }));
    }
    for (auto& f : done) f.get();
  } else if (live > 0) {
    run_stripe(0);
  }

  const std::size_t n_expired = expired.load(std::memory_order_relaxed);
  if (n_expired > 0) {
    deadline_exceeded_.fetch_add(n_expired, std::memory_order_relaxed);
    if (obs::enabled()) {
      QueryMetrics::get().deadline_exceeded.add(n_expired);
    }
  }

  queries_served_ += n;
  ++batches_served_;
  if (obs::enabled()) {
    QueryMetrics& m = QueryMetrics::get();
    m.queries.add(n);
    m.batches.add(1);
    m.batch_size.record(n);
    // Harvest per-worker plan-cache deltas so the serving tier's cache
    // posture (and the active kernel dispatch tier) is visible in
    // production telemetry.
    std::size_t dh = 0;
    std::size_t dm = 0;
    for (Worker& w : workers_) {
      if (!w.tree.has_value()) continue;
      dh += w.tree->plan_hits() - w.plan_hits_seen;
      dm += w.tree->plan_misses() - w.plan_misses_seen;
      w.plan_hits_seen = w.tree->plan_hits();
      w.plan_misses_seen = w.tree->plan_misses();
    }
    if (dh > 0) m.plan_hits.add(dh);
    if (dm > 0) m.plan_misses.add(dm);
    m.simd_tier.set(static_cast<double>(
        static_cast<int>(kertbn::simd::active_tier())));
  }
  return answers;
}

}  // namespace kertbn::core
