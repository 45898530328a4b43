#include "fleet/status.hpp"

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace kertbn::fleet {

std::string FleetStatus::to_json() const {
  obs::json::Writer w;
  w.begin_object()
      .field("ticks", ticks)
      .field("tenants", tenants)
      .field("shards", shards)
      .field("healthy", healthy)
      .field("probation", probation)
      .field("quarantined", quarantined)
      .field("health_none", health_none)
      .field("health_fresh", health_fresh)
      .field("health_stale", health_stale)
      .field("health_fallback", health_fallback)
      .field("health_degraded", health_degraded)
      .field("quarantine_events", quarantine_events)
      .field("readmissions", readmissions)
      .field("crash_recoveries", crash_recoveries)
      .field("rebuilds", rebuilds)
      .field("scheduler_granted", scheduler_granted)
      .field("scheduler_deferred", scheduler_deferred)
      .field("governor_deferred", governor_deferred)
      .field("aborted_rebuilds", aborted_rebuilds)
      .field("staleness_p50_ticks", staleness_p50_ticks)
      .field("staleness_p99_ticks", staleness_p99_ticks)
      .field("staleness_max_ticks", staleness_max_ticks);
  w.key("shards_detail").begin_array();
  for (const ShardStatus& s : shard_status) {
    w.begin_object()
        .field("shard", s.shard)
        .field("tenants", s.tenants)
        .field("governor_level", s.governor_level)
        .field("rebuilds", s.rebuilds)
        .field("governor_deferred", s.governor_deferred)
        .field("aborted_rebuilds", s.aborted_rebuilds)
        .field("shed_intervals", s.shed_intervals)
        .field("restarts", s.restarts)
        .end_object();
  }
  w.end_array().end_object();
  return w.take();
}

void publish_fleet_metrics(const FleetStatus& status) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::instance();
  const auto set = [&reg](const char* name, double v) {
    reg.gauge(name).set(v);
  };
  set("kert.fleet.ticks", static_cast<double>(status.ticks));
  set("kert.fleet.tenants", static_cast<double>(status.tenants));
  set("kert.fleet.shards", static_cast<double>(status.shards));
  set("kert.fleet.healthy", static_cast<double>(status.healthy));
  set("kert.fleet.probation", static_cast<double>(status.probation));
  set("kert.fleet.quarantined", static_cast<double>(status.quarantined));
  set("kert.fleet.quarantine_events",
      static_cast<double>(status.quarantine_events));
  set("kert.fleet.readmissions", static_cast<double>(status.readmissions));
  set("kert.fleet.crash_recoveries",
      static_cast<double>(status.crash_recoveries));
  set("kert.fleet.rebuilds", static_cast<double>(status.rebuilds));
  set("kert.fleet.scheduler_deferred",
      static_cast<double>(status.scheduler_deferred));
  set("kert.fleet.governor_deferred",
      static_cast<double>(status.governor_deferred));
  set("kert.fleet.aborted_rebuilds",
      static_cast<double>(status.aborted_rebuilds));
  set("kert.fleet.staleness_p50_ticks", status.staleness_p50_ticks);
  set("kert.fleet.staleness_p99_ticks", status.staleness_p99_ticks);
  set("kert.fleet.staleness_max_ticks", status.staleness_max_ticks);
}

}  // namespace kertbn::fleet
