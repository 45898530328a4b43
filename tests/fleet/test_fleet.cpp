/// \file test_fleet.cpp
/// Fleet-layer unit and integration coverage: workload determinism, the
/// reconstruction scheduler's priority policy, fleet convergence and
/// rerun/parallel determinism, shard-stall bulkheading, the quarantine
/// ladder lifecycle, and the status/metrics surface.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace kertbn {
namespace {

using fleet::Fleet;
using fleet::RebuildCandidate;
using fleet::ReconstructionScheduler;
using fleet::TenantCondition;
using fleet::TenantWorkload;

void expect_states_equal(const sim::ServerState& got,
                         const sim::ServerState& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.window, want.window);  // Exact double equality.
  EXPECT_EQ(got.total_points, want.total_points);
  EXPECT_EQ(got.dropped_intervals, want.dropped_intervals);
  EXPECT_EQ(got.quarantined_values, want.quarantined_values);
  EXPECT_EQ(got.consecutive_missed_intervals,
            want.consecutive_missed_intervals);
}

// --- workload ---------------------------------------------------------

TEST(TenantWorkload, IsAPureFunctionOfSeedAndTick) {
  TenantWorkload::Config cfg;
  cfg.seed = 42;
  const TenantWorkload a(cfg);
  const TenantWorkload b(cfg);
  for (std::uint64_t tick : {0u, 1u, 7u, 100u, 10000u}) {
    const auto ra = a.reports(tick);
    const auto rb = b.reports(tick);
    ASSERT_EQ(ra.size(), 1u);
    EXPECT_EQ(ra[0].service_means, rb[0].service_means);
    EXPECT_EQ(a.response_mean(tick), b.response_mean(tick));
  }
}

TEST(TenantWorkload, DistinctSeedsProduceDistinctStreams) {
  TenantWorkload::Config ca, cb;
  ca.seed = 1;
  cb.seed = 2;
  const TenantWorkload a(ca), b(cb);
  EXPECT_NE(a.response_mean(0), b.response_mean(0));
  EXPECT_NE(a.reports(0)[0].service_means, b.reports(0)[0].service_means);
}

TEST(TenantWorkload, ResponseIsSumOfServiceMeansPlusBoundedLeak) {
  TenantWorkload::Config cfg;
  cfg.seed = 9;
  const TenantWorkload w(cfg);
  for (std::uint64_t tick = 0; tick < 50; ++tick) {
    double sum = 0.0;
    for (std::size_t s = 0; s < cfg.services; ++s) {
      sum += w.service_mean(s, tick);
    }
    EXPECT_NEAR(w.response_mean(tick), sum,
                cfg.leak * w.true_response_mean() + 1e-12);
  }
}

// --- scheduler --------------------------------------------------------

TEST(ReconstructionScheduler, StalestWinsAndBudgetBinds) {
  ReconstructionScheduler::Config cfg;
  cfg.max_rebuilds_per_tick = 2;
  ReconstructionScheduler sched(cfg);
  const std::vector<RebuildCandidate> candidates = {
      {0, 3, core::ModelHealth::kFresh, false},
      {1, 9, core::ModelHealth::kFresh, false},
      {2, 5, core::ModelHealth::kStale, false},
      {3, 1, core::ModelHealth::kFresh, false},
  };
  const auto grants = sched.select(candidates);
  EXPECT_EQ(grants, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(sched.granted(), 2u);
  EXPECT_EQ(sched.deferred(), 2u);
}

TEST(ReconstructionScheduler, UnhealthyModelsJumpTheQueue) {
  ReconstructionScheduler::Config cfg;
  cfg.max_rebuilds_per_tick = 1;
  ReconstructionScheduler sched(cfg);
  const std::vector<RebuildCandidate> candidates = {
      {0, 500, core::ModelHealth::kStale, false},
      {1, 2, core::ModelHealth::kFallback, false},
  };
  EXPECT_EQ(sched.select(candidates), (std::vector<std::uint64_t>{1}));
}

TEST(ReconstructionScheduler, ProbationBoostsAndIdBreaksTies) {
  ReconstructionScheduler sched;
  const RebuildCandidate plain{0, 4, core::ModelHealth::kFresh, false};
  const RebuildCandidate probation{1, 4, core::ModelHealth::kFresh, true};
  EXPECT_GT(sched.priority(probation), sched.priority(plain));

  ReconstructionScheduler::Config one;
  one.max_rebuilds_per_tick = 1;
  ReconstructionScheduler tie(one);
  const std::vector<RebuildCandidate> equal = {
      {7, 4, core::ModelHealth::kFresh, false},
      {3, 4, core::ModelHealth::kFresh, false},
  };
  EXPECT_EQ(tie.select(equal), (std::vector<std::uint64_t>{3}));
}

// --- fleet integration ------------------------------------------------

Fleet::Config small_fleet_config() {
  Fleet::Config cfg;
  cfg.tenants = 8;
  cfg.shards = 2;
  cfg.seed = 17;
  return cfg;
}

TEST(Fleet, ConvergesEveryTenantToAFreshModel) {
  Fleet fleet(small_fleet_config());
  fleet.run_ticks(40);
  const fleet::FleetStatus st = fleet.status();
  EXPECT_EQ(st.healthy, 8u);
  EXPECT_EQ(st.quarantined, 0u);
  EXPECT_EQ(st.health_fresh + st.health_stale, 8u);
  EXPECT_GT(st.rebuilds, 0u);
  // Every tenant rebuilds at least once per alpha_model ticks once warm.
  EXPECT_LE(st.staleness_p99_ticks,
            static_cast<double>(fleet.config().schedule.alpha_model));
}

TEST(Fleet, RerunAndSerialExecutionAreBitIdentical) {
  Fleet::Config cfg = small_fleet_config();
  Fleet a(cfg);
  Fleet b(cfg);
  Fleet::Config serial = cfg;
  serial.parallel = false;
  Fleet c(serial);
  a.run_ticks(30);
  b.run_ticks(30);
  c.run_ticks(30);
  EXPECT_EQ(a.status(), b.status());
  EXPECT_EQ(a.status(), c.status());
  for (std::uint64_t id = 0; id < cfg.tenants; ++id) {
    SCOPED_TRACE("tenant " + std::to_string(id));
    EXPECT_EQ(a.tenant(id).model_text(), b.tenant(id).model_text());
    EXPECT_EQ(a.tenant(id).model_text(), c.tenant(id).model_text());
    expect_states_equal(a.tenant(id).server_state(),
                        b.tenant(id).server_state());
    expect_states_equal(a.tenant(id).server_state(),
                        c.tenant(id).server_state());
  }
}

TEST(Fleet, TightRebuildBudgetDefersButStillConvergesAll) {
  Fleet::Config cfg = small_fleet_config();
  cfg.scheduler.max_rebuilds_per_tick = 2;
  Fleet fleet(cfg);
  fleet.run_ticks(40);
  const fleet::FleetStatus st = fleet.status();
  EXPECT_GT(st.scheduler_deferred, 0u);
  EXPECT_EQ(st.health_fresh + st.health_stale, 8u);
}

TEST(Fleet, ShardStallIsBulkheaded) {
  fault::FleetFaultPlan plan;
  plan.seed = 5;
  plan.stalls.push_back({/*shard=*/0, {12, 30}, /*severity=*/3.0});

  Fleet::Config faulted_cfg = small_fleet_config();
  faulted_cfg.faults = &plan;
  Fleet faulted(faulted_cfg);
  Fleet clean(small_fleet_config());

  faulted.run_ticks(20);
  // Mid-window: the stalled shard's governor has escalated; the other
  // shard has not.
  EXPECT_EQ(faulted.shard_governor(0).level(),
            ov::PressureLevel::kEmergency);
  EXPECT_EQ(faulted.shard_governor(1).level(), ov::PressureLevel::kNormal);

  faulted.run_ticks(20);
  clean.run_ticks(40);

  // The stalled shard deferred rebuilds under its own governor...
  const fleet::FleetStatus st = faulted.status();
  EXPECT_GT(st.shard_status[0].governor_deferred, 0u);
  EXPECT_EQ(st.shard_status[1].governor_deferred, 0u);

  // ...while the other shard's tenants executed the exact same
  // instruction stream as in the fault-free run.
  for (std::uint64_t id = 0; id < 8; ++id) {
    if (faulted.shard_of(id) == 0) continue;
    SCOPED_TRACE("tenant " + std::to_string(id));
    EXPECT_EQ(faulted.tenant(id).model_text(), clean.tenant(id).model_text());
    expect_states_equal(faulted.tenant(id).server_state(),
                        clean.tenant(id).server_state());
  }
}

TEST(Fleet, QuarantineLadderIsolatesServesLkgAndReadmits) {
  fault::FleetFaultPlan plan;
  plan.seed = 11;
  plan.poisons.push_back({/*tenant=*/1, {12, 18}, /*corrupt_prob=*/1.0});

  Fleet::Config cfg = small_fleet_config();
  cfg.faults = &plan;
  Fleet fleet(cfg);

  // Strikes at ticks 12,13,14 cross the threshold (3): quarantined.
  fleet.run_ticks(20);
  EXPECT_EQ(fleet.condition(1), TenantCondition::kQuarantined);
  EXPECT_EQ(fleet.quarantine_events(1), 1u);
  // LKG serving: the model built at tick 11 is still published.
  EXPECT_NE(fleet.tenant(1).health(), core::ModelHealth::kNone);
  // Isolation froze ingest: no new quarantined values accumulate.
  const std::size_t poisoned_at_quarantine =
      fleet.tenant(1).server().quarantined_values();
  fleet.run_ticks(5);
  EXPECT_EQ(fleet.tenant(1).server().quarantined_values(),
            poisoned_at_quarantine);

  // Cooldown (24 ticks) then a clean probation (12 ticks) re-admits.
  fleet.run_ticks(35);  // through tick 60
  EXPECT_EQ(fleet.condition(1), TenantCondition::kHealthy);
  EXPECT_EQ(fleet.readmissions(1), 1u);
  EXPECT_EQ(fleet.quarantine_events(1), 1u);  // No re-quarantine.

  // Neighbors — including tenant 3 on the same shard — never tripped.
  for (std::uint64_t id : {0u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(fleet.condition(id), TenantCondition::kHealthy)
        << "tenant " << id;
    EXPECT_EQ(fleet.quarantine_events(id), 0u) << "tenant " << id;
  }
}

// --- status / metrics surface ----------------------------------------

TEST(Fleet, StatusJsonCarriesTheRollup) {
  Fleet fleet(small_fleet_config());
  fleet.run_ticks(15);
  const std::string json = fleet.status().to_json();
  EXPECT_NE(json.find("\"tenants\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"staleness_p99_ticks\":"), std::string::npos);
  EXPECT_NE(json.find("\"shards_detail\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"governor_level\":\"normal\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // JSONL-appendable.
}

// The fleet benchmark hashes these bytes into its final-state digest, so
// the exact text is part of the contract, not just the fields it carries.
TEST(Fleet, StatusJsonBytesArePinned) {
  fleet::FleetStatus s;
  s.ticks = 15;
  s.tenants = 8;
  s.shards = 2;
  s.healthy = 6;
  s.probation = 1;
  s.quarantined = 1;
  s.health_fresh = 5;
  s.health_stale = 1;
  s.health_fallback = 1;
  s.health_degraded = 1;
  s.quarantine_events = 3;
  s.readmissions = 2;
  s.crash_recoveries = 1;
  s.rebuilds = 40;
  s.scheduler_granted = 41;
  s.scheduler_deferred = 7;
  s.governor_deferred = 4;
  s.aborted_rebuilds = 1;
  s.staleness_p50_ticks = 2.5;
  s.staleness_p99_ticks = 0.1 + 0.2;  // Needs all 17 digits.
  s.staleness_max_ticks = 12.0;
  s.shard_status = {{0, 4, "normal", 22, 1, 0, 0, 0},
                    {1, 4, "shedding", 18, 3, 1, 5, 1}};
  EXPECT_EQ(
      s.to_json(),
      R"({"ticks":15,"tenants":8,"shards":2,"healthy":6,"probation":1,)"
      R"("quarantined":1,"health_none":0,"health_fresh":5,"health_stale":1,)"
      R"("health_fallback":1,"health_degraded":1,"quarantine_events":3,)"
      R"("readmissions":2,"crash_recoveries":1,"rebuilds":40,)"
      R"("scheduler_granted":41,"scheduler_deferred":7,)"
      R"("governor_deferred":4,"aborted_rebuilds":1,)"
      R"("staleness_p50_ticks":2.5,)"
      R"("staleness_p99_ticks":0.30000000000000004,)"
      R"("staleness_max_ticks":12,"shards_detail":[)"
      R"({"shard":0,"tenants":4,"governor_level":"normal","rebuilds":22,)"
      R"("governor_deferred":1,"aborted_rebuilds":0,"shed_intervals":0,)"
      R"("restarts":0},)"
      R"({"shard":1,"tenants":4,"governor_level":"shedding","rebuilds":18,)"
      R"("governor_deferred":3,"aborted_rebuilds":1,"shed_intervals":5,)"
      R"("restarts":1}]})");
  EXPECT_EQ(
      fleet::FleetStatus{}.to_json(),
      R"({"ticks":0,"tenants":0,"shards":0,"healthy":0,"probation":0,)"
      R"("quarantined":0,"health_none":0,"health_fresh":0,"health_stale":0,)"
      R"("health_fallback":0,"health_degraded":0,"quarantine_events":0,)"
      R"("readmissions":0,"crash_recoveries":0,"rebuilds":0,)"
      R"("scheduler_granted":0,"scheduler_deferred":0,)"
      R"("governor_deferred":0,"aborted_rebuilds":0,)"
      R"("staleness_p50_ticks":0,"staleness_p99_ticks":0,)"
      R"("staleness_max_ticks":0,"shards_detail":[]})");
}

TEST(Fleet, PublishMetricsFeedsThePrometheusSurface) {
  Fleet fleet(small_fleet_config());
  fleet.run_ticks(15);
  fleet.publish_metrics();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.gauge("kert.fleet.tenants"), std::optional<double>(8.0));
  EXPECT_EQ(snap.gauge("kert.fleet.ticks"), std::optional<double>(15.0));
  const std::string text = obs::to_prometheus_text(snap);
  EXPECT_NE(text.find("kertbn_kert_fleet_tenants"), std::string::npos);
  EXPECT_NE(text.find("kertbn_kert_fleet_staleness_p99_ticks"),
            std::string::npos);
}

}  // namespace
}  // namespace kertbn
