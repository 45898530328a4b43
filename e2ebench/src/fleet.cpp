/// \file fleet.cpp
/// fleet_1k: 1,024 continuous tenants on 4 shards with durable
/// directories, checkpoints, quality monitors and the global rebuild
/// scheduler, driven by Fleet::run_tick back to back. No query or
/// junction-tree work runs here: the load is ingest, journal appends,
/// window statistics, continuous rebuilds, checkpoint files, the
/// scheduler, the governors and shard fan-out.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common/rng.hpp"
#include "fleet/fleet.hpp"
#include "host.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

namespace fs = std::filesystem;
using namespace kertbn;

constexpr std::size_t kTenants = 1024;
constexpr std::size_t kCheckpointEvery = 24;
constexpr std::size_t kSetupReps = 3;
/// Ticks per second of --seconds: sized so a run lasts about that long on
/// a 4-core host; the count is fixed so same-seed runs end in one state.
constexpr double kTicksPerSecond = 100.0;
/// Tenants of the solo lane (per-tenant tick and restart cost).
constexpr std::size_t kLaneTenants = 8;
constexpr std::size_t kLaneRestarts = 5;

enum SpanName : std::uint32_t { kTickLoop, kRunTick };
const std::vector<const char*> kSpanNames = {"fleet.tick_loop",
                                             "fleet.run_tick"};

fleet::Fleet::Config fleet_config(std::uint64_t seed, const std::string& root) {
  fleet::Fleet::Config c;
  c.tenants = kTenants;
  c.shards = kFleetShards;
  c.seed = seed;
  c.schedule = sim::ModelSchedule{10.0, 6, 3};
  c.data_root = root;
  c.checkpoint_every = kCheckpointEvery;
  c.quality = true;
  c.parallel = true;
  c.scheduler.max_rebuilds_per_tick = 256;
  return c;
}

std::string fleet_digest(const fleet::Fleet& f) {
  std::uint64_t h = fnv1a(f.status().to_json());
  for (std::uint64_t id = 0; id < kTenants; ++id) {
    const fleet::Tenant& t = f.tenant(id);
    const sim::ServerState st = t.server_state();
    h = fnv1a(t.model_text(), h);
    h = fnv1a_doubles(st.window, h);
    std::vector<double> tail = {double(st.rows), double(st.total_points),
                                double(st.dropped_intervals),
                                double(st.quarantined_values),
                                double(st.consecutive_missed_intervals)};
    for (const auto& v : st.last_seen) tail.push_back(v.value_or(-1.0));
    h = fnv1a_doubles(tail, h);
  }
  return hex64(h);
}

struct Phase {
  std::vector<double> tick_ms;
  std::vector<double> checkpoint_tick_ms;  ///< Ticks that write checkpoints.
  std::vector<double> other_tick_ms;
};

Phase run_ticks(fleet::Fleet& f, std::size_t n, SpanLog& log) {
  Phase ph;
  Scope root(&log, kTickLoop, f.ticks());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t tick = f.ticks();
    const std::int64_t t0 = now_ns();
    f.run_tick();
    const std::int64_t t1 = now_ns();
    log.record(kRunTick, tick, t0, t1);
    const double ms = double(t1 - t0) / 1e6;
    ph.tick_ms.push_back(ms);
    ((tick + 1) % kCheckpointEvery == 0 ? ph.checkpoint_tick_ms
                                        : ph.other_tick_ms)
        .push_back(ms);
  }
  return ph;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

/// Solo lane: sampled tenants built exactly as the fleet builds them,
/// driven alone through the same per-tick calls, then restarted.
struct Lane {
  std::vector<double> tick_us;
  std::vector<double> restart_ms;
  bool recovered_identically = true;
};

Lane run_lane(const fleet::Fleet::Config& config, std::size_t ticks,
              const std::string& root, std::uint64_t seed) {
  Lane lane;
  Rng rng(seed ^ 0x5eedULL);
  for (std::size_t k = 0; k < kLaneTenants; ++k) {
    const std::uint64_t id = rng.uniform_index(kTenants);
    const std::string dir = root + "/lane-" + std::to_string(k);
    fleet::Tenant t(fleet::Fleet::make_tenant_config(config, id, dir));
    for (std::uint64_t tick = 0; tick < ticks; ++tick) {
      const std::int64_t a = now_ns();
      t.ingest_tick(tick);
      if (t.due(tick)) t.try_rebuild(tick);
      lane.tick_us.push_back(double(now_ns() - a) / 1e3);
    }
    const sim::ServerState want = t.server_state();
    for (std::size_t r = 0; r < kLaneRestarts; ++r) {
      const std::int64_t a = now_ns();
      const durable::RecoveryReport rep = t.restart(ticks);
      lane.restart_ms.push_back(double(now_ns() - a) / 1e6);
      const sim::ServerState got = t.server_state();
      if (got.window != want.window || got.rows != want.rows ||
          rep.malformed_payloads != 0) {
        lane.recovered_identically = false;
      }
    }
  }
  return lane;
}

}  // namespace

RunResult run_fleet(const RunOptions& opts) {
  RunResult r;
  const std::size_t ticks =
      std::max<std::size_t>(1, std::size_t(opts.seconds * kTicksPerSecond));

  // Restart-to-serving for a whole fleet is construction over fresh
  // directories (a fleet cannot resume at a tick; tenant restart is timed
  // in the solo lane).
  std::vector<double> setup_s;
  std::unique_ptr<fleet::Fleet> f;
  fleet::Fleet::Config config;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    config = fleet_config(opts.seed,
                          opts.data_dir + "/fleet-" + std::to_string(rep));
    f.reset();
    const std::int64_t t0 = now_ns();
    f = std::make_unique<fleet::Fleet>(config);
    setup_s.push_back(double(now_ns() - t0) / 1e9);
  }
  r.threads_started = kFleetShards;

  SpanLog log("ticker", &kSpanNames);
  const Phase untraced = run_ticks(*f, ticks, log);
  Phase traced;
  if (opts.trace) {
    log.set_recording(true);
    log.reserve(ticks + 1);
    traced = run_ticks(*f, ticks, log);
    log.set_recording(false);
  }
  const fleet::FleetStatus st = f->status();
  r.attempted = st.tenants * st.ticks + st.scheduler_granted;
  r.failed = st.aborted_rebuilds + st.quarantine_events;
  for (const fleet::ShardStatus& s : st.shard_status) r.failed += s.shed_intervals;
  if (st.quarantined != 0 || st.health_degraded != 0) {
    r.problem("a clean fleet run quarantined or degraded a tenant");
  }
  r.digest = fleet_digest(*f);

  if (!opts.trace) {
    double total_s = 0.0;
    for (double ms : untraced.tick_ms) total_s += ms / 1e3;
    if (untraced.tick_ms.size() < samples_needed(0.99)) {
      r.problem("tick_p99_ms: too few samples for its percentile");
    }
    const std::size_t n = untraced.tick_ms.size();
    r.metrics = {
        {"tenant_intervals_per_s", double(kTenants * n) / total_s, "1/s", n},
        {"tick_p50_ms", percentile(untraced.tick_ms, 0.5), "ms", n},
        {"tick_p99_ms", percentile(untraced.tick_ms, 0.99), "ms", n},
        {"staleness_p99_ticks", st.staleness_p99_ticks, "ticks", kTenants},
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"peak_rss_mb", peak_rss_mib(), "MiB", 1},
    };
    return r;
  }

  const Lane lane = run_lane(config, ticks, opts.data_dir, opts.seed);
  if (!lane.recovered_identically) {
    r.problem("a solo-lane tenant restart did not restore its window");
  }
  const double total_ticks = double(st.ticks);
  auto add = [&](const char* name, double v, const char* unit,
                 std::size_t n) { r.metrics.push_back({name, v, unit, n}); };
  add("fleet.tick_ms.checkpoint.p50", percentile(traced.checkpoint_tick_ms, 0.5),
      "ms", traced.checkpoint_tick_ms.size());
  add("fleet.tick_ms.other.p50", percentile(traced.other_tick_ms, 0.5), "ms",
      traced.other_tick_ms.size());
  add("fleet.rebuilds_per_tick", double(st.rebuilds) / total_ticks, "count",
      0);
  add("fleet.scheduler_deferred", double(st.scheduler_deferred), "count", 0);
  add("overload.governor_deferred", double(st.governor_deferred), "count", 0);
  add("fleet.tenant.tick_us.p50", percentile(lane.tick_us, 0.5), "us",
      lane.tick_us.size());
  add("fleet.tenant.restart_ms.p50", percentile(lane.restart_ms, 0.5), "ms",
      lane.restart_ms.size());
  add("fleet.parallel_efficiency",
      parallel_efficiency(mean(lane.tick_us) / 1e6, kTenants, kFleetShards,
                          mean(traced.tick_ms) / 1e3),
      "fraction", traced.tick_ms.size());
  const double cov = coverage(log.spans());
  add("trace.coverage", cov, "fraction", 1);
  if (cov < 0.9) r.problem("spans cover less than 90% of the tick loop's time");
  add("trace.overhead",
      percentile(traced.tick_ms, 0.5) / percentile(untraced.tick_ms, 0.5) -
          1.0,
      "fraction", traced.tick_ms.size());
  if (!opts.trace_path.empty() && !write_spans(opts.trace_path, {&log})) {
    r.problem("cannot write the span file");
  }
  return r;
}

}  // namespace e2e
