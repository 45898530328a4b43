/// \file ediamond.cpp
/// The eDiaMoND workloads: one solo KERT-BN pipeline (server with bounded
/// admission, write-ahead journal and checkpoints, incremental guarded
/// manager publishing snapshots, quality monitor) fed on an open-loop
/// schedule while an interactive controller queries it in a closed loop,
/// then swept by a batch controller in a closed loop of its own.
///
///   ediamond_coarse  3 bins, stationary load, one interval every 2 ms.
///                    Queries cost microseconds, so per-query fixed costs
///                    (snapshot acquire, tree adoption, telemetry, stripe
///                    fan-out) dominate.
///   ediamond_wide    4 bins (a 4^7-entry top clique), load drifting on a
///                    seeded sinusoid, one interval every 5 ms. Factor
///                    kernels dominate queries; CPT materialization and
///                    refit recounts dominate rebuilds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bn/junction_tree.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "durable/checkpoint.hpp"
#include "durable/journal.hpp"
#include "durable/recovery.hpp"
#include "host.hpp"
#include "kert/applications.hpp"
#include "kert/model_manager.hpp"
#include "kert/query_engine.hpp"
#include "obs/quality/monitor.hpp"
#include "sosim/monitoring.hpp"
#include "sosim/synthetic.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace fs = std::filesystem;
using namespace kertbn;

struct Spec {
  std::size_t bins;
  double t_data_ms;  ///< Wall-clock feed period (one T_DATA).
  bool drift;
};

Spec spec_for(const std::string& workload) {
  if (workload == "ediamond_wide") return {4, 5.0, true};
  return {3, 2.0, false};
}

/// Simulated schedule: T_DATA = 10 s, α = 12 (T_CON = 12 intervals),
/// K = 3 (a 36-row window).
const sim::ModelSchedule kSchedule{10.0, 12, 3};
constexpr std::size_t kRequestsPerInterval = 8;
constexpr std::size_t kCheckpointEvery = 24;
/// Checkpoints land half a T_CON after a rebuild deadline, so a slow
/// checkpoint fsync delays later intervals (it shows as lateness) but not
/// the rebuild whose freshness is measured.
constexpr std::size_t kCheckpointPhase = 6;
/// Untimed warm-up before the set-ups: checkpoints land at intervals 6, 30
/// and 54, so recovery loads a checkpoint and replays a six-interval tail.
constexpr std::size_t kWarmupIntervals = 60;
/// Untimed set-ups first, then timed ones after every window (see
/// Window), enough in all for the reported p90.
constexpr std::size_t kColdSetups = 4;
constexpr std::size_t kInteractiveQueries = 4096;
constexpr std::size_t kSweeps = 8;
constexpr std::size_t kSweepSize = 256;
constexpr std::size_t kMaxReferenceSamples = 32;
constexpr double kTolerance = 1e-9;
/// Deadlines per end-to-end window (see Window): the fewest rebuilds whose
/// p90 has ten samples beyond it.
constexpr std::size_t kWindowRebuilds = 100;
/// Length of a window's batch stage as a share of its serve stage (see
/// Window): a few hundred sweeps on either workload.
constexpr double kBatchStageShare = 1.0 / 6.0;
/// Deadlines of the untimed window before the timed ones. On a 4-core VM
/// the first second of serving after set-up ran rebuilds at half their
/// later speed (see NOTES.md).
constexpr std::size_t kWarmWindowRebuilds = 40;
/// The feeder sleeps to this long before an interval is due and spins the
/// rest of the way.
constexpr std::int64_t kFeedSpinNs = 300'000;
/// Phase length of a traced run: long enough for every per-layer
/// percentile, short enough to keep its spans in memory.
constexpr double kTracedPhaseSeconds = 10.0;

enum SpanName : std::uint32_t {
  kFeedInterval,
  kOffer,
  kAppend,
  kWindowObserve,
  kQualityObserve,
  kMaybeReconstruct,
  kAcquire,
  kCheckpoint,
  kCtlInteractive,  ///< Root: a controller's closed loop for one window.
  kQueryPost,
  kCtlBatch,
  kSweepPost,
};
const std::vector<const char*> kSpanNames = {
    "feed.interval",          "sosim.offer_interval", "durable.append",
    "kert.window.observe",    "quality.observe",      "kert.maybe_reconstruct",
    "kert.snapshot.acquire",  "durable.checkpoint",   "ctl.interactive",
    "kert.query.post",        "ctl.batch",            "kert.query.sweep",
};

struct Interval {
  std::vector<sim::AgentReport> reports;
  double response = 0.0;
};

/// The stream of interval means: each interval averages kRequestsPerInterval
/// requests of the eDiaMoND environment. With drift the load scale follows
/// a seeded sinusoid fast and deep enough (a period of 4–8 T_CON) for the
/// quality monitor to confirm drift between rebuilds.
std::vector<Interval> make_intervals(sim::SyntheticEnvironment& env,
                                     std::size_t n, bool drift, Rng& rng) {
  const double amplitude = rng.uniform(0.5, 0.7);
  const double period = rng.uniform(48.0, 96.0);
  const double phase = rng.uniform(0.0, 2.0 * M_PI);
  const std::size_t services = env.service_count();
  std::vector<Interval> out(n);
  std::vector<double> sums(services);
  for (std::size_t i = 0; i < n; ++i) {
    if (drift) {
      env.set_load_scale(1.0 + amplitude *
                                   std::sin(2.0 * M_PI * double(i) / period +
                                            phase));
    }
    std::fill(sums.begin(), sums.end(), 0.0);
    double response = 0.0;
    for (std::size_t r = 0; r < kRequestsPerInterval; ++r) {
      const sim::RequestTrace t = env.execute_request(rng);
      for (std::size_t s = 0; s < services; ++s) sums[s] += t.service_times[s];
      response += t.response_time;
    }
    sim::AgentReport report;
    report.agent = 0;
    for (std::size_t s = 0; s < services; ++s) {
      report.service_means.emplace_back(s,
                                        sums[s] / double(kRequestsPerInterval));
    }
    out[i].reports.push_back(std::move(report));
    out[i].response = response / double(kRequestsPerInterval);
  }
  if (drift) env.set_load_scale(1.0);
  return out;
}

bn::SortedEvidence random_evidence(Rng& rng, std::size_t services,
                                   std::size_t bins, std::size_t count) {
  bn::SortedEvidence ev;
  while (ev.size() < count) {
    const std::size_t node = rng.uniform_index(services);
    bool seen = false;
    for (const auto& e : ev) seen = seen || e.first == node;
    if (!seen) ev.emplace_back(node, rng.uniform_index(bins));
  }
  std::sort(ev.begin(), ev.end());
  return ev;
}

/// The interactive controller's rotation: dComp posterior, P(D > h),
/// evidence probability, pAccel what-if.
std::vector<core::Query> make_interactive(Rng& rng, std::size_t services,
                                          std::size_t bins,
                                          const std::vector<double>& h) {
  const std::size_t d = services;
  std::vector<core::Query> out(kInteractiveQueries);
  for (std::size_t i = 0; i < out.size(); ++i) {
    core::Query& q = out[i];
    switch (i % 4) {
      case 0:
        q.kind = core::QueryKind::kPosterior;
        q.target = rng.uniform_index(services);
        q.evidence = {{d, rng.uniform_index(bins)}};
        break;
      case 1:
        q.kind = core::QueryKind::kExceedance;
        q.target = d;
        q.evidence = random_evidence(rng, services, bins, 1);
        q.threshold = h[rng.uniform_index(h.size())];
        break;
      case 2:
        q.kind = core::QueryKind::kEvidenceProbability;
        q.evidence = random_evidence(rng, services, bins, 2);
        break;
      default:
        q.kind = core::QueryKind::kWhatIf;
        q.target = d;
        q.evidence = {{rng.uniform_index(services), 0}};
        break;
    }
  }
  return out;
}

/// Batch what-if sweeps: hypothetical states of one or two services,
/// read mostly on D.
std::vector<core::QueryBatch> make_sweeps(Rng& rng, std::size_t services,
                                          std::size_t bins) {
  std::vector<core::QueryBatch> out(kSweeps);
  for (auto& sweep : out) {
    sweep.resize(kSweepSize);
    for (core::Query& q : sweep) {
      q.kind = core::QueryKind::kWhatIf;
      q.query_class = core::QueryClass::kBatch;
      q.evidence = random_evidence(rng, services, bins,
                                   1 + rng.uniform_index(2));
      // Mostly D; sometimes a service outside the hypothetical (a
      // posterior of an observed node is not a question).
      q.target = services;
      if (rng.uniform_index(4) == 0) {
        const std::size_t s = rng.uniform_index(services);
        bool observed = false;
        for (const auto& e : q.evidence) observed = observed || e.first == s;
        if (!observed) q.target = s;
      }
    }
  }
  return out;
}

/// One solo pipeline over a durable directory. Hooks read `log` and
/// `trace_id`, so spans can be switched on after construction.
struct Pipeline {
  std::string dir;
  std::unique_ptr<sim::ManagementServer> server;
  std::unique_ptr<core::ModelManager> manager;
  std::unique_ptr<quality::ModelQualityMonitor> monitor;
  std::unique_ptr<durable::JournalWriter> journal;
  std::unique_ptr<durable::CheckpointStore> store;
  durable::RecoveryReport recovery;
  std::string journal_buf;
  double sim_now = 0.0;
  SpanLog* log = nullptr;
  std::uint64_t trace_id = 0;

  ~Pipeline() {
    if (server != nullptr) {
      server->set_ingest_log(nullptr);
      server->set_missed_log(nullptr);
    }
  }
};

/// Builds the pipeline and recovers it from \p dir (a no-op on an empty
/// directory). Recovery runs before the journal hooks attach, so replayed
/// events are not journaled again.
std::unique_ptr<Pipeline> build_pipeline(const sim::SyntheticEnvironment& env,
                                         std::size_t bins,
                                         const std::string& dir,
                                         double recover_now) {
  auto p = std::make_unique<Pipeline>();
  Pipeline* raw = p.get();
  p->dir = dir;
  p->server = std::make_unique<sim::ManagementServer>(
      env.workflow().service_names(), kSchedule);

  core::ModelManager::Config mc;
  mc.schedule = kSchedule;
  mc.bins = bins;
  mc.incremental = true;
  mc.guard = true;
  mc.publish_snapshots = true;
  p->manager =
      std::make_unique<core::ModelManager>(env.workflow(), env.sharing(), mc);
  p->server->set_row_observer([raw](std::span<const double> row) {
    Scope s(raw->log, kWindowObserve, raw->trace_id);
    raw->manager->observe_row(row);
  });

  quality::ModelQualityMonitor::Config qc;
  qc.clock = [raw] { return raw->sim_now; };
  p->monitor = std::make_unique<quality::ModelQualityMonitor>(*p->manager, qc);
  p->server->add_row_observer([raw](std::span<const double> row) {
    Scope s(raw->log, kQualityObserve, raw->trace_id);
    raw->monitor->observe_row(row);
  });
  p->server->configure_admission(sim::IngestAdmission{
      nullptr, 4, sim::IngestOverflowPolicy::kShedOldest});

  p->recovery = durable::RecoveryManager(dir).recover(
      *p->server, p->manager.get(), recover_now);
  p->monitor->set_recovery(p->recovery);
  p->sim_now = recover_now;

  // The write-ahead hook of durable::ServerJournal, spelled out so the
  // append is a span of its own.
  p->journal = std::make_unique<durable::JournalWriter>(
      durable::JournalConfig{dir, 1u << 20, durable::FsyncPolicy::kPerSegment});
  p->server->set_ingest_log(
      [raw](const std::vector<sim::AgentReport>& reports, double response) {
        Scope s(raw->log, kAppend, raw->trace_id);
        durable::encode_ingest_into(raw->journal_buf, reports, response);
        raw->journal->append(raw->journal_buf);
      });
  p->server->set_missed_log(
      [raw] { raw->journal->append(durable::encode_missed()); });
  p->store = std::make_unique<durable::CheckpointStore>(
      durable::CheckpointStore::Config{dir});
  return p;
}

bool same_state(const sim::ServerState& a, const sim::ServerState& b) {
  return a.rows == b.rows && a.cols == b.cols && a.window == b.window &&
         a.last_seen == b.last_seen && a.total_points == b.total_points &&
         a.dropped_intervals == b.dropped_intervals &&
         a.quarantined_values == b.quarantined_values &&
         a.duplicate_values == b.duplicate_values &&
         a.consecutive_missed_intervals == b.consecutive_missed_intervals;
}

std::string pipeline_digest(const Pipeline& p) {
  const sim::ServerState st = p.server->export_state();
  std::uint64_t h = fnv1a(p.manager->export_model_text());
  h = fnv1a_doubles(st.window, h);
  std::vector<double> tail = {double(st.rows),
                              double(st.cols),
                              double(st.total_points),
                              double(st.dropped_intervals),
                              double(st.quarantined_values),
                              double(st.duplicate_values),
                              double(st.consecutive_missed_intervals)};
  for (const auto& v : st.last_seen) tail.push_back(v.value_or(-1.0));
  return hex64(fnv1a_doubles(tail, h));
}

/// One answered query kept for the full-recalibration reference check.
struct Sample {
  core::Query query;
  core::QueryAnswer answer;
  std::shared_ptr<const core::ModelSnapshot> snapshot;
};

/// Cheap per-answer invariants: the violated one, or nullptr.
const char* answer_fault(const core::Query& q, const core::QueryAnswer& a) {
  if (a.status != core::QueryStatus::kOk) return "status not ok";
  if (q.kind == core::QueryKind::kEvidenceProbability) {
    const double p = a.evidence_probability;
    return std::isfinite(p) && p > 0.0 && p <= 1.0
               ? nullptr
               : "evidence probability outside (0, 1]";
  }
  double sum = 0.0;
  for (double x : a.posterior) {
    if (!(x >= 0.0)) return "negative or NaN posterior mass";
    sum += x;
  }
  if (a.posterior.empty() || std::abs(sum - 1.0) > kTolerance) {
    return "posterior does not sum to 1";
  }
  // Same rounding tolerance as the sum: a sum of bin masses that covers
  // every bin can land one ulp above 1.
  if (q.kind == core::QueryKind::kExceedance &&
      !(a.exceedance >= -kTolerance && a.exceedance <= 1.0 + kTolerance)) {
    return "exceedance outside [0, 1]";
  }
  return nullptr;
}

/// Re-evaluates \p s on a fresh full-recalibration tree over the same
/// snapshot's network; true when every reported number agrees.
bool matches_reference(const Sample& s) {
  const core::ModelSnapshot& snap = *s.snapshot;
  const core::Query& q = s.query;
  const core::QueryAnswer& a = s.answer;
  bn::JunctionTree jt(snap.net);
  jt.set_incremental(false);
  jt.calibrate_sorted(q.evidence);
  if (q.kind == core::QueryKind::kEvidenceProbability) {
    return std::abs(jt.evidence_probability() - a.evidence_probability) <=
           kTolerance;
  }
  const std::vector<double> ref = jt.posterior(q.target);
  if (ref.size() != a.posterior.size()) return false;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::abs(ref[i] - a.posterior[i]) > kTolerance) return false;
  }
  const core::ColumnDiscretizer* column =
      snap.discretizer.has_value() && q.target < snap.discretizer->columns()
          ? &snap.discretizer->column(q.target)
          : nullptr;
  const core::DistributionSummary summary =
      core::summarize_discrete_posterior(ref, column);
  if (q.kind == core::QueryKind::kExceedance &&
      std::abs(summary.exceedance(q.threshold) - a.exceedance) > kTolerance) {
    return false;
  }
  if (q.kind == core::QueryKind::kWhatIf) {
    bn::JunctionTree prior(snap.net);
    prior.set_incremental(false);
    prior.calibrate_sorted({});
    const core::DistributionSummary base =
        core::summarize_discrete_posterior(prior.posterior(q.target), column);
    if (std::abs(base.mean - a.baseline.mean) > kTolerance ||
        std::abs(base.stddev - a.baseline.stddev) > kTolerance) {
      return false;
    }
  }
  return true;
}

/// What one window of a timed phase measured. A timed phase is a run of
/// equal windows; each end-to-end metric is taken per window and the run
/// reports its median across windows, so a host stall shorter than half
/// the phase does not move it. A window runs two stages one after the
/// other, so that at most two threads are busy at any time:
///   serve  the feeder and the interactive controller, for kWindowRebuilds
///          deadlines (enough for the freshness p90);
///   batch  the batch controller alone, its sweeps striped over the pool,
///          for kBatchStageShare of the serve stage's length.
/// Set-ups are timed between windows, which spreads their samples over
/// the whole run (the host's single-thread speed drifts in steps lasting
/// seconds). Each load thread writes only its own fields.
struct Window {
  // Interactive controller.
  LatencyHistogram query_ns;
  std::vector<double> first_after_publish_us;
  std::size_t interactive_bad = 0;
  const char* interactive_fault = nullptr;  ///< First one seen.
  std::size_t versions_seen = 0;
  // Batch controller.
  std::vector<double> sweep_s;  ///< Duration of each sweep.
  std::size_t sweep_queries = 0;
  std::size_t batch_bad = 0;
  const char* batch_fault = nullptr;
  // Feeder.
  std::vector<double> freshness_ms;       ///< Feeder CPU time.
  std::vector<double> freshness_wall_ms;  ///< Wall clock, for the record.
  std::vector<double> late_ms;
  std::size_t intervals = 0;
  std::size_t deadlines = 0;
  std::size_t publish_mismatch = 0;
};

using Phase = std::vector<Window>;

/// Per-window values of a phase.
template <class F>
std::vector<double> each(const Phase& ph, F&& per_window) {
  std::vector<double> v;
  for (const Window& w : ph) v.push_back(per_window(w));
  return v;
}

/// Median across a phase's windows of a per-window value.
template <class F>
double across(const Phase& ph, F&& per_window) {
  return median(each(ph, per_window));
}

template <class F>
std::size_t total(const Phase& ph, F&& per_window) {
  std::size_t n = 0;
  for (const Window& w : ph) n += per_window(w);
  return n;
}

template <class F>
std::vector<double> merged(const Phase& ph, F&& per_window) {
  std::vector<double> out;
  for (const Window& w : ph) {
    const std::vector<double>& v = per_window(w);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

class Workload {
 public:
  explicit Workload(const RunOptions& opts)
      : opts_(opts),
        spec_(spec_for(opts.workload)),
        env_(sim::make_ediamond_environment()),
        feed_log_("feeder", &kSpanNames),
        query_log_("interactive", &kSpanNames),
        sweep_log_("batch", &kSpanNames) {}

  RunResult run();

 private:
  void generate_inputs();
  void warm_up(RunResult& r);
  /// One timed restart-to-serving over a copy of the warm-up's directory.
  std::unique_ptr<Pipeline> set_up(RunResult& r);
  void start_engines();
  Phase run_phase(std::size_t first, RunResult& r);
  /// One window: \p len intervals from \p first, then the batch stage.
  Window run_window(std::size_t first, std::size_t len);
  void interactive_loop(Window& w, const std::atomic<bool>& stop);
  void batch_loop(Window& w, std::int64_t until_ns);
  void feed(Window& w, std::size_t g, std::int64_t due_ns);
  void account(const Phase& ph, RunResult& r);
  void end_to_end(const Phase& ph, RunResult& r);
  void per_layer(const Phase& untraced, const Phase& traced, RunResult& r);
  void probes(RunResult& r);

  const RunOptions& opts_;
  Spec spec_;
  sim::SyntheticEnvironment env_;
  std::size_t windows_ = 1;     ///< Windows per timed phase.
  std::size_t window_len_ = 0;  ///< Intervals per window.
  std::size_t setups_per_gap_ = 1;
  std::vector<Interval> intervals_;
  std::vector<core::Query> interactive_;
  std::vector<core::QueryBatch> interactive_batches_;
  std::vector<core::QueryBatch> sweeps_;
  std::uint64_t sample_stride_ = 1;

  std::unique_ptr<Pipeline> pipe_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<core::QueryEngine> interactive_engine_;
  std::unique_ptr<core::QueryEngine> batch_engine_;
  std::string warm_dir_;
  sim::ServerState warm_state_;
  std::size_t setups_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> recover_ms_;
  std::size_t rebuilds_before_ = 0;
  std::vector<Sample> samples_;
  std::vector<Sample> sweep_samples_;
  // Controller state carried across windows.
  std::uint64_t next_query_ = 0;
  std::uint64_t next_sweep_ = 0;
  std::size_t interactive_version_ = 0;
  std::size_t batch_version_ = 0;
  bool interactive_monotonic_ = true;
  bool batch_monotonic_ = true;

  SpanLog feed_log_;
  SpanLog query_log_;
  SpanLog sweep_log_;
};

void Workload::generate_inputs() {
  Rng rng(opts_.seed);
  // A traced run times two shorter phases, untraced then traced.
  const double seconds =
      opts_.trace ? std::min(opts_.seconds, kTracedPhaseSeconds) : opts_.seconds;
  window_len_ = kWindowRebuilds * kSchedule.alpha_model;
  const double serve_ms = double(window_len_) * spec_.t_data_ms;
  windows_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds * 1000.0 /
                                  (serve_ms * (1.0 + kBatchStageShare))));
  setups_per_gap_ = (samples_needed(0.9) + windows_ - 1) / windows_;
  const std::size_t phases = opts_.trace ? 2 : 1;
  intervals_ = make_intervals(env_,
                              kWarmupIntervals +
                                  kWarmWindowRebuilds * kSchedule.alpha_model +
                                  phases * windows_ * window_len_,
                              spec_.drift, rng);
  // Exceedance thresholds: upper quantiles of the generated D stream.
  std::vector<double> d;
  for (const Interval& iv : intervals_) d.push_back(iv.response);
  std::vector<double> h;
  for (double q : {0.5, 0.75, 0.9, 0.95}) h.push_back(percentile(d, q));
  const std::size_t services = env_.service_count();
  interactive_ = make_interactive(rng, services, spec_.bins, h);
  for (const core::Query& q : interactive_) {
    interactive_batches_.push_back(core::QueryBatch{q});
  }
  sweeps_ = make_sweeps(rng, services, spec_.bins);
  sample_stride_ = 4000 + rng.uniform_index(1000);
}

void Workload::warm_up(RunResult& r) {
  const std::string dir = opts_.data_dir + "/warmup";
  fs::create_directories(dir);
  auto p = build_pipeline(env_, spec_.bins, dir, 0.0);
  for (std::size_t g = 0; g < kWarmupIntervals; ++g) {
    p->sim_now = double(g + 1) * kSchedule.t_data;
    p->server->offer_interval(intervals_[g].reports, intervals_[g].response,
                              p->sim_now);
    p->manager->maybe_reconstruct(p->sim_now, p->server->window());
    if ((g + 1) % kCheckpointEvery == kCheckpointPhase) {
      const durable::Checkpoint ck = durable::capture_checkpoint(
          *p->server, *p->manager, p->sim_now, p->journal->last_seq());
      p->store->write(ck);
      durable::prune_journal(dir, ck.journal_seq);
    }
  }
  if (!p->manager->has_model()) r.problem("warm-up built no model");
  warm_dir_ = dir;
  warm_state_ = p->server->export_state();
}  // The process dies; only the directory survives.

std::unique_ptr<Pipeline> Workload::set_up(RunResult& r) {
  const std::string dir =
      opts_.data_dir + "/serve-" + std::to_string(setups_++);
  fs::copy(warm_dir_, dir, fs::copy_options::recursive);
  const double now = double(kWarmupIntervals) * kSchedule.t_data;
  const std::int64_t t0 = now_ns();
  auto p = build_pipeline(env_, spec_.bins, dir, now);
  const std::int64_t t1 = now_ns();
  const auto snap = p->manager->snapshot_slot().acquire();
  const std::int64_t t2 = now_ns();
  setup_s_.push_back(double(t2 - t0) / 1e9);
  recover_ms_.push_back(double(t1 - t0) / 1e6);
  ++r.attempted;
  if (snap == nullptr || !snap->has_tree()) {
    ++r.failed;
    r.problem("set-up published no servable snapshot");
  }
  if (!same_state(p->server->export_state(), warm_state_)) {
    r.problem("recovered server state differs from the warm-up's");
  }
  if (p->recovery.malformed_payloads != 0) {
    r.problem("recovery saw malformed journal payloads");
  }
  return p;
}

void Workload::start_engines() {
  pool_ = std::make_unique<ThreadPool>(kBatchWorkers);
  core::QueryEngine::Config ic;
  ic.slot = &pipe_->manager->snapshot_slot();
  interactive_engine_ = std::make_unique<core::QueryEngine>(ic);
  core::QueryEngine::Config bc = ic;
  bc.pool = pool_.get();
  batch_engine_ = std::make_unique<core::QueryEngine>(bc);
  // Adopt the served tree and fill plan caches before timing.
  for (std::size_t i = 0; i < 64; ++i) {
    interactive_engine_->post(interactive_batches_[i]);
  }
  batch_engine_->post(sweeps_[0]);
}

void Workload::feed(Window& w, std::size_t g, std::int64_t due_ns) {
  Pipeline& p = *pipe_;
  SpanLog* log = &feed_log_;
  const std::int64_t start = now_ns();
  const std::int64_t start_cpu = thread_cpu_ns();
  w.late_ms.push_back(double(start - due_ns) / 1e6);
  Scope root(log, kFeedInterval, g);
  p.sim_now = double(g + 1) * kSchedule.t_data;
  p.trace_id = g;
  {
    Scope s(log, kOffer, g);
    p.server->offer_interval(intervals_[g].reports, intervals_[g].response,
                             p.sim_now);
  }
  ++w.intervals;
  const bool deadline = p.sim_now >= p.manager->next_due();
  std::optional<core::Reconstruction> rebuilt;
  {
    Scope s(log, kMaybeReconstruct, g);
    rebuilt = p.manager->maybe_reconstruct(p.sim_now, p.server->window());
  }
  if (deadline) ++w.deadlines;
  if (rebuilt.has_value()) {
    std::shared_ptr<const core::ModelSnapshot> snap;
    {
      Scope s(log, kAcquire, g);
      snap = p.manager->snapshot_slot().acquire();
    }
    w.freshness_ms.push_back(double(thread_cpu_ns() - start_cpu) / 1e6);
    w.freshness_wall_ms.push_back(double(now_ns() - due_ns) / 1e6);
    if (snap == nullptr || snap->version != rebuilt->version) {
      ++w.publish_mismatch;
    }
  }
  if ((g + 1) % kCheckpointEvery == kCheckpointPhase) {
    Scope s(log, kCheckpoint, g);
    const durable::Checkpoint ck = durable::capture_checkpoint(
        *p.server, *p.manager, p.sim_now, p.journal->last_seq());
    p.store->write(ck);
    durable::prune_journal(p.dir, ck.journal_seq);
  }
}

void Workload::interactive_loop(Window& w, const std::atomic<bool>& stop) {
  // A closed loop never idles: its busy time is the whole loop, one root
  // span, and each post is a child timed by the latency clock reads.
  SpanLog* log = &query_log_;
  Scope root(log, kCtlInteractive, next_query_);
  bool first = true;
  for (; !stop.load(std::memory_order_relaxed); ++next_query_) {
    const std::uint64_t j = next_query_;
    const core::QueryBatch& batch =
        interactive_batches_[j % interactive_batches_.size()];
    const std::int64_t t0 = now_ns();
    const std::vector<core::QueryAnswer> answers =
        interactive_engine_->post(batch);
    const std::int64_t t1 = now_ns();
    log->record(kQueryPost, j, t0, t1);
    w.query_ns.record(t1 - t0);
    const core::QueryAnswer& a = answers[0];
    if (a.snapshot_version != interactive_version_) {
      if (a.snapshot_version < interactive_version_) {
        interactive_monotonic_ = false;
      }
      // The first post of a window follows a pause, not a publication.
      if (!first) w.first_after_publish_us.push_back(double(t1 - t0) / 1e3);
      interactive_version_ = a.snapshot_version;
      ++w.versions_seen;
    }
    first = false;
    if (const char* fault = answer_fault(batch[0], a)) {
      ++w.interactive_bad;
      if (w.interactive_fault == nullptr) w.interactive_fault = fault;
    }
    if (j % sample_stride_ == sample_stride_ / 2 &&
        samples_.size() < kMaxReferenceSamples) {
      auto snap = pipe_->manager->snapshot_slot().acquire();
      if (snap->version == a.snapshot_version) {
        samples_.push_back(Sample{batch[0], a, std::move(snap)});
      }
    }
  }
}

void Workload::batch_loop(Window& w, std::int64_t until_ns) {
  SpanLog* log = &sweep_log_;
  Scope root(log, kCtlBatch, next_sweep_);
  for (; now_ns() < until_ns; ++next_sweep_) {
    const std::uint64_t j = next_sweep_;
    const core::QueryBatch& sweep = sweeps_[j % sweeps_.size()];
    const std::int64_t t0 = now_ns();
    const std::vector<core::QueryAnswer> answers = batch_engine_->post(sweep);
    const std::int64_t t1 = now_ns();
    log->record(kSweepPost, j, t0, t1);
    w.sweep_s.push_back(double(t1 - t0) / 1e9);
    w.sweep_queries += answers.size();
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (const char* fault = answer_fault(sweep[i], answers[i])) {
        ++w.batch_bad;
        if (w.batch_fault == nullptr) w.batch_fault = fault;
      }
    }
    const std::size_t v = answers[0].snapshot_version;
    if (v < batch_version_) batch_monotonic_ = false;
    batch_version_ = v;
    if (j % 97 == 13 && sweep_samples_.size() < kMaxReferenceSamples) {
      auto snap = pipe_->manager->snapshot_slot().acquire();
      if (snap->version == v) {
        const std::size_t i = (j * 31) % answers.size();
        sweep_samples_.push_back(Sample{sweep[i], answers[i], std::move(snap)});
      }
    }
  }
}

Window Workload::run_window(std::size_t first, std::size_t len) {
  Window w;
  w.late_ms.reserve(len);
  const auto period_ns = static_cast<std::int64_t>(spec_.t_data_ms * 1e6);
  std::atomic<bool> stop{false};
  std::thread interactive([&] { interactive_loop(w, stop); });
  const std::int64_t t0 = now_ns() + period_ns;
  for (std::size_t i = 0; i < len; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(i) * period_ns;
    // Sleep most of the way, then spin (yielding), so the feeder holds no
    // core between intervals and its wake-up latency does not land in the
    // interval's timings.
    const std::int64_t nap = due - kFeedSpinNs - now_ns();
    if (nap > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
    while (now_ns() < due) std::this_thread::yield();
    feed(w, first + i, due);
  }
  stop.store(true);
  interactive.join();
  const auto serve_ns = static_cast<std::int64_t>(len) * period_ns;
  batch_loop(w, now_ns() + static_cast<std::int64_t>(double(serve_ns) *
                                                      kBatchStageShare));
  return w;
}

Phase Workload::run_phase(std::size_t first, RunResult& r) {
  Phase ph;
  for (std::size_t k = 0; k < windows_; ++k) {
    ph.push_back(run_window(first + k * window_len_, window_len_));
    ++r.threads_started;
    for (std::size_t i = 0; i < setups_per_gap_; ++i) {
      const std::string dir = set_up(r)->dir;
      fs::remove_all(dir);
    }
  }
  return ph;
}

void Workload::account(const Phase& ph, RunResult& r) {
  for (const Window& w : ph) {
    r.attempted +=
        w.query_ns.count() + w.sweep_queries + w.intervals + w.deadlines;
    r.failed += w.interactive_bad + w.batch_bad;
    for (const char* fault : {w.interactive_fault, w.batch_fault}) {
      if (fault != nullptr) r.problem(std::string("invalid answer: ") + fault);
    }
    if (w.publish_mismatch != 0) {
      r.problem("a rebuilt snapshot was not the one acquired after publish");
    }
  }
}

void Workload::end_to_end(const Phase& ph, RunResult& r) {
  for (const Window& w : ph) {
    if (w.query_ns.count() < samples_needed(0.99) ||
        w.freshness_ms.size() < samples_needed(0.9) ||
        setup_s_.size() < samples_needed(0.9)) {
      r.problem("a window has too few samples for its percentiles");
      break;
    }
  }
  const std::size_t queries =
      total(ph, [](const Window& w) { return w.query_ns.count(); });
  const std::size_t rebuilds =
      total(ph, [](const Window& w) { return w.freshness_ms.size(); });
  r.windows = {
      {"query_p50_us", each(ph, [](const Window& w) {
         return w.query_ns.percentile_ns(0.5) / 1e3;
       })},
      {"query_p99_us", each(ph, [](const Window& w) {
         return w.query_ns.percentile_ns(0.99) / 1e3;
       })},
      {"batch_qps", each(ph, [](const Window& w) {
         return double(kSweepSize) / median(w.sweep_s);
       })},
      {"freshness_p90_ms", each(ph, [](const Window& w) {
         return percentile(w.freshness_ms, 0.9);
       })},
  };
  const std::size_t counts[] = {
      queries, queries,
      total(ph, [](const Window& w) { return w.sweep_s.size(); }), rebuilds};
  const char* units[] = {"us", "us", "1/s", "ms"};
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    r.metrics.push_back({r.windows[i].first, median(r.windows[i].second),
                         units[i], counts[i]});
  }
  // The p90 of all set-ups, not their median: on ediamond_wide set-ups run
  // in two modes whose mix follows the host (see NOTES.md).
  r.metrics.push_back(
      {"setup_s", percentile(setup_s_, 0.9), "s", setup_s_.size()});
  r.metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB", 1});
  r.windows.push_back({"setup_s", setup_s_});
  // For the record only. The median rebuild falls between two cost modes
  // whose mix drifts from run to run (see NOTES.md), and the wall clock
  // counts time the hypervisor gave to other guests.
  r.windows.push_back({"freshness_p50_ms", each(ph, [](const Window& w) {
                         return percentile(w.freshness_ms, 0.5);
                       })});
  for (const double q : {0.5, 0.9}) {
    r.windows.push_back(
        {q == 0.5 ? "freshness_wall_p50_ms" : "freshness_wall_p90_ms",
         each(ph, [q](const Window& w) {
           return percentile(w.freshness_wall_ms, q);
         })});
  }
}

void Workload::per_layer(const Phase& untraced, const Phase& traced,
                         RunResult& r) {
  const auto& fs_ = feed_log_.spans();
  const auto& qs = query_log_.spans();
  const auto& ss = sweep_log_.spans();
  auto add = [&](const char* name, double value, const char* unit,
                 std::size_t n) { r.metrics.push_back({name, value, unit, n}); };
  auto pct = [&](const char* name, const std::vector<double>& v, double q,
                 const char* unit, double scale = 1.0) {
    add(name, percentile(v, q) * scale, unit, v.size());
  };

  const Pipeline& p = *pipe_;
  const auto offer_self = durations_us(fs_, kOffer, /*self=*/true);
  pct("sosim.offer_self_us.p50", offer_self, 0.5, "us");
  pct("sosim.offer_self_us.p99", offer_self, 0.99, "us");
  pct("sosim.interval_late_ms.p99",
      merged(traced, [](const Window& w) -> const std::vector<double>& {
        return w.late_ms;
      }),
      0.99, "ms");
  add("sosim.shed_intervals", double(p.server->shed_intervals()), "count", 0);

  const auto append = durations_us(fs_, kAppend);
  pct("durable.append_us.p50", append, 0.5, "us");
  pct("durable.append_us.p99", append, 0.99, "us");
  const auto intervals = [](const Window& w) { return w.intervals; };
  add("durable.journal_bytes_per_interval",
      double(p.journal->bytes_appended()) /
          double(total(untraced, intervals) + total(traced, intervals)),
      "B", 0);
  pct("durable.checkpoint_ms.p50", durations_us(fs_, kCheckpoint), 0.5, "ms",
      1e-3);
  add("durable.recover_ms", median(recover_ms_), "ms", recover_ms_.size());

  pct("kert.window.observe_us.p50", durations_us(fs_, kWindowObserve), 0.5,
      "us");
  const auto& hist = p.manager->history();
  std::size_t inc = 0, refit = 0, rows = 0;
  std::vector<double> fit_ms;
  for (std::size_t i = rebuilds_before_; i < hist.size(); ++i) {
    inc += hist[i].incremental ? 1 : 0;
    refit += hist[i].discretizer_refit ? 1 : 0;
    rows += hist[i].rows_touched;
    fit_ms.push_back(hist[i].report.total_seconds * 1e3);
  }
  const std::size_t rebuilds = hist.size() - rebuilds_before_;
  const double nb = double(std::max<std::size_t>(rebuilds, 1));
  add("kert.window.incremental_share", double(inc) / nb, "fraction", rebuilds);
  add("kert.window.refit_share", double(refit) / nb, "fraction", rebuilds);
  add("kert.window.rows_touched_per_rebuild", double(rows) / nb, "rows",
      rebuilds);

  // Rebuild spans: the maybe_reconstruct calls that rebuilt (each is
  // followed by an acquire span with the same trace id).
  std::vector<double> rebuild_ms;
  {
    std::map<std::uint64_t, double> mr;
    for (const Span& s : fs_) {
      if (s.name == kMaybeReconstruct) mr[s.trace] = double(s.duration_ns());
    }
    for (const Span& s : fs_) {
      if (s.name == kAcquire) rebuild_ms.push_back(mr[s.trace] / 1e6);
    }
  }
  pct("kert.rebuild_ms.p50", rebuild_ms, 0.5, "ms");
  pct("kert.rebuild_ms.p90", rebuild_ms, 0.9, "ms");
  pct("kert.fit_ms.p50", fit_ms, 0.5, "ms");
  add("kert.rebuilds", double(rebuilds), "count", 0);
  add("kert.rebuild_failed",
      double(p.manager->failed_reconstructions() +
             p.manager->aborted_reconstructions()),
      "count", 0);
  add("kert.stale_skips", double(p.manager->stale_skips()), "count", 0);

  pct("quality.observe_us.p50", durations_us(fs_, kQualityObserve), 0.5, "us");
  add("quality.drift_notices", double(p.manager->drift_notices()), "count", 0);

  // Per-kind interactive latency from the post spans.
  std::vector<double> by_kind[4];
  for (const Span& s : qs) {
    if (s.name != kQueryPost) continue;
    const auto kind = static_cast<std::size_t>(
        interactive_[s.trace % interactive_.size()].kind);
    by_kind[kind].push_back(double(s.duration_ns()) / 1e3);
  }
  const std::pair<const char*, core::QueryKind> kinds[] = {
      {"posterior", core::QueryKind::kPosterior},
      {"exceedance", core::QueryKind::kExceedance},
      {"evidence", core::QueryKind::kEvidenceProbability},
      {"whatif", core::QueryKind::kWhatIf}};
  for (const auto& [label, kind] : kinds) {
    const auto& v = by_kind[static_cast<std::size_t>(kind)];
    const std::string base = std::string("kert.query.") + label + "_us.";
    r.metrics.push_back({base + "p50", percentile(v, 0.5), "us", v.size()});
    r.metrics.push_back({base + "p99", percentile(v, 0.99), "us", v.size()});
  }
  pct("kert.query.sweep_ms.p50", durations_us(ss, kSweepPost), 0.5, "ms",
      1e-3);
  pct("kert.query.first_after_publish_us.p50",
      merged(traced,
             [](const Window& w) -> const std::vector<double>& {
               return w.first_after_publish_us;
             }),
      0.5, "us");
  const std::size_t served = interactive_engine_->queries_served() +
                             batch_engine_->queries_served();
  add("kert.query.pruned_share",
      double(interactive_engine_->pruned_routes() +
             batch_engine_->pruned_routes()) /
          double(served),
      "fraction", served);
  add("kert.query.versions_served",
      double(total(traced, [](const Window& w) { return w.versions_seen; })),
      "count", 0);
  const auto bad = [](const Window& w) {
    return w.interactive_bad + w.batch_bad;
  };
  add("kert.query.not_ok", double(total(untraced, bad) + total(traced, bad)),
      "count", 0);

  probes(r);

  const double cov = std::min({coverage(fs_), coverage(qs), coverage(ss)});
  add("trace.coverage", cov, "fraction", 3);
  if (cov < 0.9) {
    r.problem("spans cover less than 90% of a load thread's busy time");
  }
  const auto p50 = [](const Phase& ph) {
    return across(ph,
                  [](const Window& w) { return w.query_ns.percentile_ns(0.5); });
  };
  add("trace.overhead", p50(traced) / p50(untraced) - 1.0, "fraction",
      total(traced, [](const Window& w) { return w.query_ns.count(); }));
}

/// Off the timed path, on the last published snapshot: the 1- vs
/// 2-worker sweep (stripe efficiency) and the recalibration probe.
void Workload::probes(RunResult& r) {
  const auto snap = pipe_->manager->snapshot_slot().acquire();
  core::SnapshotSlot slot;
  slot.publish(snap);
  core::QueryEngine::Config c1;
  c1.slot = &slot;
  core::QueryEngine serial(c1);
  core::QueryEngine::Config c2 = c1;
  c2.pool = pool_.get();
  core::QueryEngine striped(c2);
  serial.post(sweeps_[0]);
  striped.post(sweeps_[0]);
  std::vector<double> t1, t2;
  for (std::size_t rep = 0; rep < 7; ++rep) {
    const core::QueryBatch& sweep = sweeps_[rep % sweeps_.size()];
    std::int64_t a = now_ns();
    serial.post(sweep);
    std::int64_t b = now_ns();
    striped.post(sweep);
    std::int64_t c = now_ns();
    t1.push_back(double(b - a));
    t2.push_back(double(c - b));
  }
  r.metrics.push_back({"kert.query.stripe_efficiency",
                       stripe_efficiency(median(t1), median(t2), kBatchWorkers),
                       "fraction", t1.size()});

  bn::JunctionTree tree(*snap->prior_tree);
  const std::size_t hits0 = tree.plan_hits();
  const std::size_t misses0 = tree.plan_misses();
  std::vector<double> us;
  for (std::size_t i = 0; i < 2048; ++i) {
    const core::Query& q = interactive_[i % interactive_.size()];
    const std::int64_t a = now_ns();
    tree.calibrate_sorted(q.evidence);
    if (q.kind != core::QueryKind::kEvidenceProbability) {
      volatile double sink = tree.posterior(q.target)[0];
      (void)sink;
    }
    us.push_back(double(now_ns() - a) / 1e3);
  }
  const double hits = double(tree.plan_hits() - hits0);
  const double misses = double(tree.plan_misses() - misses0);
  r.metrics.push_back(
      {"bn.calibrate_us.p50", percentile(us, 0.5), "us", us.size()});
  // The base is the number of plan lookups; a one-clique tree passes no
  // messages and looks up none, which reads as 0 over a base of 0.
  r.metrics.push_back({"bn.plan_hit_share", hits / std::max(1.0, hits + misses),
                       "fraction", static_cast<std::size_t>(hits + misses)});
  r.metrics.push_back(
      {"bn.simd_tier", double(static_cast<int>(simd::active_tier())), "tier",
       0});
}

RunResult Workload::run() {
  RunResult r;
  generate_inputs();
  warm_up(r);
  // The first set-ups of a process run cold (allocator, caches, clock
  // ramp); they are not timed, and the last one serves. Timed set-ups
  // follow each timed window.
  for (std::size_t i = 0; i < kColdSetups; ++i) pipe_ = set_up(r);
  setup_s_.clear();
  recover_ms_.clear();
  pipe_->log = &feed_log_;
  start_engines();
  r.threads_started = kBatchWorkers;

  const std::size_t warm_len = kWarmWindowRebuilds * kSchedule.alpha_model;
  account(Phase{run_window(kWarmupIntervals, warm_len)}, r);
  ++r.threads_started;
  rebuilds_before_ = pipe_->manager->history().size();
  const std::size_t first = kWarmupIntervals + warm_len;
  const Phase untraced = run_phase(first, r);
  account(untraced, r);
  if (!opts_.trace) {
    end_to_end(untraced, r);
  } else {
    for (SpanLog* log : {&feed_log_, &query_log_, &sweep_log_}) {
      log->set_recording(true);
    }
    const Phase traced = run_phase(first + windows_ * window_len_, r);
    for (SpanLog* log : {&feed_log_, &query_log_, &sweep_log_}) {
      log->set_recording(false);
    }
    account(traced, r);
    per_layer(untraced, traced, r);
    if (!opts_.trace_path.empty() &&
        !write_spans(opts_.trace_path,
                     {&feed_log_, &query_log_, &sweep_log_})) {
      r.problem("cannot write the span file");
    }
  }
  if (!interactive_monotonic_ || !batch_monotonic_) {
    r.problem("a controller saw snapshot versions go backwards");
  }

  const Pipeline& p = *pipe_;
  r.failed += p.manager->failed_reconstructions() +
              p.manager->aborted_reconstructions() +
              p.server->shed_intervals();
  for (const auto* set : {&samples_, &sweep_samples_}) {
    for (const Sample& s : *set) {
      ++r.attempted;
      if (!matches_reference(s)) {
        ++r.failed;
        r.problem("an answer disagrees with full recalibration (v" +
                  std::to_string(s.snapshot->version) + ")");
      }
    }
  }
  if (samples_.empty() || sweep_samples_.empty()) {
    r.problem("no answers were sampled for the reference check");
  }
  r.digest = pipeline_digest(p);
  return r;
}

}  // namespace

RunResult run_ediamond(const RunOptions& opts) {
  Workload w(opts);
  return w.run();
}

}  // namespace e2e
