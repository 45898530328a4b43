#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fault/fault_injector.hpp"
#include "kert/model_manager.hpp"
#include "kert/query_engine.hpp"
#include "overload/cancellation.hpp"
#include "overload/governor.hpp"
#include "sosim/monitoring.hpp"
#include "sosim/scenario.hpp"
#include "sosim/synthetic.hpp"
#include "sosim/testbed.hpp"

namespace kertbn {
namespace {

using ov::LoadSignals;
using ov::PressureGovernor;
using ov::PressureLevel;
using ov::TokenBucket;
using ov::WorkClass;

// ---------------------------------------------------------------- governor

TEST(TokenBucket, RefillsFromCallerTimestampsOnly) {
  TokenBucket bucket(2.0, 4.0);  // 2 tokens/s, burst 4
  EXPECT_TRUE(bucket.try_take(0.0, 4.0));   // drain the burst
  EXPECT_FALSE(bucket.try_take(0.0, 1.0));  // empty, no time passed
  EXPECT_TRUE(bucket.try_take(1.0, 2.0));   // 1 s later: 2 tokens back
  EXPECT_FALSE(bucket.try_take(1.0, 0.5));
  // Time moving backwards refills nothing (and must not crash).
  EXPECT_FALSE(bucket.try_take(0.5, 0.5));
  // Refill is capped at the burst size.
  EXPECT_TRUE(bucket.try_take(100.0, 4.0));
  EXPECT_FALSE(bucket.try_take(100.0, 0.5));
}

TEST(TokenBucket, UnconfiguredBucketIsOpen) {
  TokenBucket bucket;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0.0, 1.0));
}

PressureGovernor::Config crisp_config() {
  PressureGovernor::Config cfg;
  cfg.ewma_alpha = 1.0;  // unsmoothed: score == raw signal
  cfg.min_dwell_s = 2.0;
  return cfg;
}

TEST(PressureGovernor, EscalatesImmediatelyDescendsWithHysteresis) {
  PressureGovernor gov(crisp_config());
  EXPECT_EQ(gov.level(), PressureLevel::kNormal);

  LoadSignals calm;
  EXPECT_EQ(gov.update(0.0, calm), PressureLevel::kNormal);

  // A saturating signal escalates in one step — straight past throttled.
  LoadSignals hot;
  hot.offered_load = 1.3;  // limit 1.0 -> score 1.3 >= shed_enter 1.25
  EXPECT_EQ(gov.update(1.0, hot), PressureLevel::kShedding);

  // Inside the dwell window: even a calm signal cannot descend yet.
  LoadSignals cool;
  cool.offered_load = 0.6;  // below shed_exit 0.90, above throttle_exit 0.50
  EXPECT_EQ(gov.update(2.0, cool), PressureLevel::kShedding);

  // Past the dwell but above the exit threshold: still no descent.
  LoadSignals warm;
  warm.offered_load = 1.0;  // > shed_exit 0.90
  EXPECT_EQ(gov.update(10.0, warm), PressureLevel::kShedding);

  // Dwell satisfied AND below the exit: one rung down, never a cliff.
  EXPECT_EQ(gov.update(11.0, cool), PressureLevel::kThrottled);
  // The new rung restarts the dwell clock; 0.6 also sits above
  // throttle_exit, so the ladder parks here until the load truly clears.
  EXPECT_EQ(gov.update(14.0, cool), PressureLevel::kThrottled);
  LoadSignals idle;
  EXPECT_EQ(gov.update(16.0, idle), PressureLevel::kNormal);

  ASSERT_EQ(gov.transitions().size(), 3u);
  EXPECT_EQ(gov.transitions()[0].from, PressureLevel::kNormal);
  EXPECT_EQ(gov.transitions()[0].to, PressureLevel::kShedding);
  EXPECT_EQ(gov.transitions()[0].reason, "offered_load");
  EXPECT_EQ(gov.transitions()[1].to, PressureLevel::kThrottled);
  EXPECT_EQ(gov.transitions()[2].to, PressureLevel::kNormal);
}

TEST(PressureGovernor, EmergencyEntersAndExitsOneRungAtATime) {
  PressureGovernor gov(crisp_config());
  LoadSignals overload;
  overload.cpu_pressure = 1.0;    // x1.5 -> 1.5
  overload.offered_load = 2.5;    // score 2.5 >= emergency_enter 2.0
  EXPECT_EQ(gov.update(0.0, overload), PressureLevel::kEmergency);
  LoadSignals calm;
  EXPECT_EQ(gov.update(3.0, calm), PressureLevel::kShedding);
  EXPECT_EQ(gov.update(6.0, calm), PressureLevel::kThrottled);
  EXPECT_EQ(gov.update(9.0, calm), PressureLevel::kNormal);
}

TEST(PressureGovernor, ShedsReconstructionFirst) {
  PressureGovernor gov(crisp_config());
  LoadSignals hot;
  hot.offered_load = 1.3;
  gov.update(0.0, hot);
  ASSERT_EQ(gov.level(), PressureLevel::kShedding);
  // Reconstruction is refused outright; ingest and queries still admit
  // (their default budgets are generous).
  EXPECT_FALSE(gov.admit(WorkClass::kReconstruction, 0.0));
  EXPECT_TRUE(gov.admit(WorkClass::kIngest, 0.0));
  EXPECT_TRUE(gov.admit(WorkClass::kQuery, 0.0));
  EXPECT_EQ(gov.rejected(WorkClass::kReconstruction), 1u);
  EXPECT_EQ(gov.admitted(WorkClass::kIngest), 1u);
}

TEST(PressureGovernor, TransitionsAndAdmissionsBitIdenticalAcrossReruns) {
  auto drive = [](PressureGovernor& gov) {
    Rng rng(404);
    double now = 0.0;
    for (int i = 0; i < 400; ++i) {
      now += rng.uniform(0.1, 2.0);
      LoadSignals s;
      s.pool_queue_depth = rng.uniform(0.0, 120.0);
      s.ingest_backlog = rng.uniform(0.0, 12.0);
      s.offered_load = rng.uniform(0.0, 2.5);
      s.query_p99_ms = rng.uniform(0.0, 80.0);
      s.cpu_pressure = rng.uniform(0.0, 1.0);
      gov.update(now, s);
      gov.admit(WorkClass::kIngest, now);
      gov.admit(WorkClass::kReconstruction, now);
      gov.admit(WorkClass::kQuery, now, 100.0);
    }
  };
  PressureGovernor a, b;
  drive(a);
  drive(b);
  ASSERT_FALSE(a.transitions().empty());
  EXPECT_EQ(a.transitions(), b.transitions());
  for (const WorkClass cls :
       {WorkClass::kIngest, WorkClass::kReconstruction, WorkClass::kQuery}) {
    EXPECT_EQ(a.admitted(cls), b.admitted(cls));
    EXPECT_EQ(a.rejected(cls), b.rejected(cls));
  }
}

// ---------------------------------------------------------- ingest admission

sim::ModelSchedule tiny_schedule() { return sim::ModelSchedule{1.0, 4, 2}; }

std::vector<sim::AgentReport> full_reports(double a, double b) {
  return {sim::AgentReport{0, {{0, a}, {1, b}}}};
}

/// Governor whose ingest bucket holds \p burst tokens and never refills —
/// the deterministic way to make admission say no.
PressureGovernor starved_ingest_governor(double burst) {
  PressureGovernor::Config cfg;
  cfg.ingest_rate = 0.0;
  cfg.ingest_burst = burst;
  return PressureGovernor(cfg);
}

TEST(IngestAdmission, UnconfiguredOfferMatchesIngest) {
  sim::ManagementServer direct({"s0", "s1"}, tiny_schedule());
  sim::ManagementServer offered({"s0", "s1"}, tiny_schedule());
  for (int i = 0; i < 5; ++i) {
    const auto reports = full_reports(0.1 + i * 0.01, 0.2);
    direct.ingest_interval(reports, 0.5);
    EXPECT_TRUE(offered.offer_interval(reports, 0.5, double(i)));
  }
  EXPECT_EQ(offered.total_points(), direct.total_points());
  EXPECT_EQ(offered.window_rows(), direct.window_rows());
  EXPECT_EQ(offered.shed_intervals(), 0u);
  EXPECT_EQ(offered.pending_intervals(), 0u);
}

TEST(IngestAdmission, ShedOldestBoundsPendingAndCountsEverything) {
  PressureGovernor gov = starved_ingest_governor(2.0);
  sim::ManagementServer server({"s0", "s1"}, tiny_schedule());
  server.configure_admission(
      {&gov, 3, sim::IngestOverflowPolicy::kShedOldest});

  const std::size_t offered = 8;
  for (std::size_t i = 0; i < offered; ++i) {
    server.offer_interval(full_reports(0.1, 0.2), 0.5, 0.0);
  }
  // Two tokens -> two rows; the bound holds at 3; the rest were shed.
  EXPECT_EQ(server.total_points(), 2u);
  EXPECT_EQ(server.pending_intervals(), 3u);
  EXPECT_EQ(server.shed_intervals(), 3u);
  EXPECT_EQ(server.total_points() + server.pending_intervals() +
                server.shed_intervals(),
            offered);
  // Offers that landed no row accrued staleness.
  EXPECT_EQ(server.consecutive_missed_intervals(), offered - 2);
}

TEST(IngestAdmission, RejectNewKeepsOldestPending) {
  // burst 0 + rate 0 would read as unconfigured; use a sub-token burst.
  PressureGovernor::Config cfg;
  cfg.ingest_rate = 0.0;
  cfg.ingest_burst = 0.5;  // never enough for one interval
  PressureGovernor starved(cfg);
  sim::ManagementServer server({"s0", "s1"}, tiny_schedule());
  server.configure_admission(
      {&starved, 2, sim::IngestOverflowPolicy::kRejectNew});

  for (int i = 0; i < 5; ++i) {
    // Tag each interval by its response mean so we can identify survivors.
    EXPECT_FALSE(
        server.offer_interval(full_reports(0.1, 0.2), 1.0 + i, 0.0));
  }
  EXPECT_EQ(server.total_points(), 0u);
  EXPECT_EQ(server.pending_intervals(), 2u);
  EXPECT_EQ(server.shed_intervals(), 3u);

  // A fresh governor lets the survivors drain: they are the two OLDEST
  // offers (kRejectNew refused the newcomers).
  PressureGovernor open;
  server.configure_admission({&open, 2, sim::IngestOverflowPolicy::kRejectNew});
  EXPECT_TRUE(server.offer_interval(full_reports(0.1, 0.2), 10.0, 1.0));
  EXPECT_EQ(server.pending_intervals(), 0u);
  EXPECT_EQ(server.total_points(), 3u);  // 2 drained + the new offer
  const bn::Dataset& window = server.window();
  const std::size_t d_col = window.cols() - 1;
  EXPECT_DOUBLE_EQ(window.row(0)[d_col], 1.0);
  EXPECT_DOUBLE_EQ(window.row(1)[d_col], 2.0);
  EXPECT_DOUBLE_EQ(window.row(2)[d_col], 10.0);
}

TEST(IngestAdmission, BlockPolicyDrainsSynchronouslyLosesNothing) {
  PressureGovernor::Config cfg;
  cfg.ingest_rate = 0.0;
  cfg.ingest_burst = 1.0;
  PressureGovernor gov(cfg);
  sim::ManagementServer server({"s0", "s1"}, tiny_schedule());
  server.configure_admission({&gov, 2, sim::IngestOverflowPolicy::kBlock});

  const std::size_t offered = 6;
  for (std::size_t i = 0; i < offered; ++i) {
    server.offer_interval(full_reports(0.1, 0.2), 0.5, 0.0);
    EXPECT_LE(server.pending_intervals(), 2u);
  }
  EXPECT_EQ(server.shed_intervals(), 0u);
  EXPECT_EQ(server.total_points() + server.pending_intervals(), offered);
}

// ------------------------------------------------- reconstruction governor

core::ModelManager::Config publishing_config() {
  core::ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{10.0, 12, 3};  // T_CON = 120 s
  cfg.bins = 3;
  cfg.publish_snapshots = true;
  return cfg;
}

TEST(ReconstructionOverload, DeferredPastThrottledHealthStaysStale) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  PressureGovernor gov(crisp_config());
  core::ModelManager::Config cfg = publishing_config();
  cfg.governor = &gov;
  core::ModelManager manager(env.workflow(), env.sharing(), cfg);

  Rng rng(51);
  ASSERT_TRUE(manager.maybe_reconstruct(120.0, env.generate(36, rng)));
  EXPECT_EQ(manager.version(), 1u);
  ASSERT_TRUE(manager.snapshot_slot().has_snapshot());

  // Escalate past throttled: the next due rebuild must defer, not run.
  LoadSignals hot;
  hot.offered_load = 1.5;
  gov.update(200.0, hot);
  ASSERT_GE(gov.level(), PressureLevel::kShedding);

  EXPECT_FALSE(manager.maybe_reconstruct(240.0, env.generate(36, rng)));
  EXPECT_EQ(manager.deferred_reconstructions(), 1u);
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.health(), core::ModelHealth::kStale);
  EXPECT_EQ(manager.failed_reconstructions(), 0u);
  // The last-known-good snapshot keeps serving.
  EXPECT_EQ(manager.snapshot_slot().acquire()->version, 1u);
  // The deadline moved on instead of blocking.
  EXPECT_DOUBLE_EQ(manager.next_due(), 360.0);

  // Pressure clears: the following deadline rebuilds normally.
  LoadSignals calm;
  gov.update(300.0, calm);
  gov.update(330.0, calm);
  gov.update(350.0, calm);
  ASSERT_EQ(gov.level(), PressureLevel::kNormal);
  EXPECT_TRUE(manager.maybe_reconstruct(360.0, env.generate(36, rng)));
  EXPECT_EQ(manager.version(), 2u);
  EXPECT_EQ(manager.health(), core::ModelHealth::kFresh);
}

TEST(ReconstructionOverload, AbortRollsBackToLastKnownGood) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ov::CancellationSource cancel;
  core::ModelManager::Config cfg = publishing_config();
  cfg.cancel = cancel.token().flag();
  core::ModelManager manager(env.workflow(), env.sharing(), cfg);

  Rng rng(52);
  ASSERT_TRUE(manager.maybe_reconstruct(120.0, env.generate(36, rng)));
  const std::size_t published = manager.snapshot_slot().published_count();
  EXPECT_EQ(manager.version(), 1u);

  // Raise the flag: the build starts, the learn stops before the first
  // node fit, and the manager rolls the partial build back wholesale.
  cancel.request_cancel();
  EXPECT_FALSE(manager.maybe_reconstruct(240.0, env.generate(36, rng)));
  EXPECT_EQ(manager.aborted_reconstructions(), 1u);
  EXPECT_EQ(manager.version(), 1u);
  EXPECT_EQ(manager.health(), core::ModelHealth::kStale);
  EXPECT_EQ(manager.failed_reconstructions(), 0u);
  // Nothing was published: a reader can never acquire the aborted build.
  EXPECT_EQ(manager.snapshot_slot().published_count(), published);
  EXPECT_EQ(manager.snapshot_slot().acquire()->version, 1u);

  // The flag clears and the next deadline rebuilds from scratch.
  cancel.reset();
  EXPECT_TRUE(manager.maybe_reconstruct(360.0, env.generate(36, rng)));
  EXPECT_EQ(manager.version(), 2u);
  EXPECT_EQ(manager.health(), core::ModelHealth::kFresh);
  EXPECT_EQ(manager.snapshot_slot().acquire()->version, 2u);
}

TEST(ReconstructionOverload, RolledBackRebuildServesIdenticalModelText) {
  // The rollback stash is the serving network itself, moved out for the
  // rebuild and moved back: the restored model must be byte-identical,
  // D's bins^(n+1) table included.
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ov::CancellationSource cancel;
  core::ModelManager::Config cfg = publishing_config();
  cfg.bins = 4;
  cfg.cancel = cancel.token().flag();
  core::ModelManager manager(env.workflow(), env.sharing(), cfg);

  Rng rng(53);
  ASSERT_TRUE(manager.maybe_reconstruct(120.0, env.generate(36, rng)));
  const std::string served = manager.export_model_text();
  ASSERT_FALSE(served.empty());

  cancel.request_cancel();
  EXPECT_FALSE(manager.maybe_reconstruct(240.0, env.generate(36, rng)));
  EXPECT_EQ(manager.aborted_reconstructions(), 1u);
  ASSERT_TRUE(manager.has_model());
  EXPECT_EQ(manager.export_model_text(), served);
  EXPECT_EQ(manager.snapshot_slot().acquire()->version, 1u);
}

// -------------------------------------------------------- query deadlines

TEST(QueryOverload, GovernorShedsBatchClassBeforeAnyWork) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  Rng rng(61);
  const bn::Dataset train = env.generate(60, rng);
  const core::DatasetDiscretizer disc(train, 3);
  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));
  core::SnapshotSlot slot;
  slot.publish(core::make_model_snapshot(1, 120.0, kert.net, disc));

  PressureGovernor gov(crisp_config());
  LoadSignals hot;
  hot.offered_load = 1.5;
  gov.update(0.0, hot);
  ASSERT_EQ(gov.level(), PressureLevel::kShedding);

  core::QueryEngine::Config cfg;
  cfg.slot = &slot;
  cfg.governor = &gov;
  core::QueryEngine engine(cfg);

  core::QueryBatch batch(2);
  batch[0].target = 0;
  batch[0].query_class = core::QueryClass::kInteractive;
  batch[1].target = 0;
  batch[1].query_class = core::QueryClass::kBatch;
  const auto answers = engine.post(batch);
  EXPECT_EQ(answers[0].status, core::QueryStatus::kOk);
  EXPECT_FALSE(answers[0].posterior.empty());
  EXPECT_EQ(answers[1].status, core::QueryStatus::kShed);
  EXPECT_TRUE(answers[1].posterior.empty());
  EXPECT_EQ(answers[1].snapshot_version, 1u);
  EXPECT_EQ(engine.shed_queries(), 1u);
}

TEST(QueryOverload, EmergencyMetersInteractiveQueriesByToken) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  Rng rng(62);
  const bn::Dataset train = env.generate(60, rng);
  const core::DatasetDiscretizer disc(train, 3);
  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));
  core::SnapshotSlot slot;
  slot.publish(core::make_model_snapshot(1, 120.0, kert.net, disc));

  PressureGovernor::Config gov_cfg = crisp_config();
  gov_cfg.query_rate = 0.0;
  gov_cfg.query_burst = 8.0;  // at emergency cost 4x: two tokens' worth
  PressureGovernor gov(gov_cfg);
  LoadSignals overload;
  overload.offered_load = 3.0;
  gov.update(0.0, overload);
  ASSERT_EQ(gov.level(), PressureLevel::kEmergency);

  core::QueryEngine::Config cfg;
  cfg.slot = &slot;
  cfg.governor = &gov;
  cfg.clock = [] { return std::uint64_t{0}; };
  core::QueryEngine engine(cfg);

  core::QueryBatch batch(4);
  for (auto& q : batch) {
    q.target = 0;
    q.query_class = core::QueryClass::kInteractive;
  }
  const auto answers = engine.post(batch);
  std::size_t ok = 0, shed = 0;
  for (const auto& a : answers) {
    (a.status == core::QueryStatus::kOk ? ok : shed) += 1;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(engine.shed_queries(), 2u);
}

/// Satellite 3: deadline expiry races a publisher that keeps hot-swapping
/// snapshots. Expired queries must return kDeadlineExceeded with an empty
/// posterior — never a partially calibrated answer — while live queries
/// keep serving valid posteriors from whichever snapshot is current.
TEST(QueryOverload, DeadlineExpiryUnderConcurrentHotSwap) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  Rng rng(63);
  const bn::Dataset train = env.generate(60, rng);
  const core::DatasetDiscretizer disc(train, 3);
  const auto kert = core::construct_kert_discrete(
      env.workflow(), env.sharing(), disc, disc.discretize(train));
  core::SnapshotSlot slot;
  slot.publish(core::make_model_snapshot(1, 120.0, kert.net, disc));
  const std::size_t n_nodes = kert.net.size();

  std::atomic<std::uint64_t> fake_now{1000};
  ThreadPool pool(2);
  core::QueryEngine::Config cfg;
  cfg.slot = &slot;
  cfg.pool = &pool;
  cfg.clock = [&fake_now] {
    return fake_now.load(std::memory_order_relaxed);
  };
  core::QueryEngine engine(cfg);

  // The "reconstruction" underneath: a publisher thread hot-swapping new
  // snapshot versions while batches run.
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::size_t version = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      slot.publish(
          core::make_model_snapshot(version++, 120.0, kert.net, disc));
      std::this_thread::yield();
    }
  });

  Rng qrng(64);
  std::size_t expected_expired = 0;
  for (int round = 0; round < 40; ++round) {
    core::QueryBatch batch(8);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].target = qrng.uniform_index(n_nodes - 1);
      batch[i].evidence = {{n_nodes - 1, qrng.uniform_index(3)}};
      batch[i].query_class = (i % 3 == 0) ? core::QueryClass::kBatch
                                          : core::QueryClass::kInteractive;
      // Every other query carries an already-expired deadline.
      batch[i].deadline_ns = (i % 2 == 0) ? 500 : 0;
      if (i % 2 == 0) ++expected_expired;
    }
    const auto answers = engine.post(batch);
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const auto& a = answers[i];
      EXPECT_GE(a.snapshot_version, 1u);
      if (i % 2 == 0) {
        EXPECT_EQ(a.status, core::QueryStatus::kDeadlineExceeded);
        EXPECT_TRUE(a.posterior.empty());
      } else {
        EXPECT_EQ(a.status, core::QueryStatus::kOk);
        ASSERT_FALSE(a.posterior.empty());
        double total = 0.0;
        for (double p : a.posterior) {
          EXPECT_TRUE(std::isfinite(p));
          EXPECT_GE(p, 0.0);
          total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
    }
  }
  stop.store(true);
  publisher.join();
  EXPECT_EQ(engine.deadline_exceeded(), expected_expired);
  EXPECT_EQ(engine.queries_served(), 40u * 8u);
}

// ------------------------------------------------------ fault-plan faults

TEST(OverloadFaults, ScheduledWindowsAreDeterministic) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.ingest_bursts.push_back({100.0, 200.0});
  plan.ingest_burst_factor = 5.0;
  plan.cpu_stalls.push_back({150.0, 160.0});
  plan.cpu_stall_severity = 0.8;
  plan.query_floods.push_back({300.0, 320.0});
  plan.query_flood_factor = 4.0;
  EXPECT_FALSE(plan.trivial());

  fault::FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.ingest_burst_factor(50.0), 1.0);
  EXPECT_DOUBLE_EQ(inj.ingest_burst_factor(150.0), 5.0);
  EXPECT_DOUBLE_EQ(inj.ingest_burst_factor(200.0), 1.0);  // half-open
  EXPECT_DOUBLE_EQ(inj.cpu_pressure(149.0), 0.0);
  EXPECT_DOUBLE_EQ(inj.cpu_pressure(155.0), 0.8);
  EXPECT_DOUBLE_EQ(inj.query_flood_factor(310.0), 4.0);
  EXPECT_DOUBLE_EQ(inj.query_flood_factor(330.0), 1.0);
}

TEST(OverloadFaults, CpuStallHookBurnsTimeOnlyInsideWindows) {
  fault::FaultPlan plan;
  plan.seed = 9;
  plan.cpu_stalls.push_back({10.0, 20.0});
  plan.cpu_stall_severity = 0.1;
  fault::ScopedFaultPlan scoped(plan);
  fault::set_sim_now(5.0);
  fault::maybe_cpu_stall();  // outside: no-op
  fault::set_sim_now(15.0);
  fault::maybe_cpu_stall();  // inside: burns deterministic spin work
  SUCCEED();  // timing-only: the contract is "does not crash or mutate"
}

// ----------------------------------------------- flash-crowd acceptance

struct CrowdRun {
  std::vector<ov::GovernorTransition> transitions;
  PressureLevel peak = PressureLevel::kNormal;
  PressureLevel final_level = PressureLevel::kNormal;
  std::size_t rows = 0;
  std::size_t shed = 0;
  std::size_t max_pending = 0;
  std::size_t intervals = 0;
};

CrowdRun run_flash_crowd() {
  fault::FaultPlan plan;
  plan.seed = 2026;
  plan.ingest_bursts.push_back({150.0, 250.0});
  plan.ingest_burst_factor = 5.0;  // the 5x crowd of the acceptance bar
  fault::ScopedFaultPlan scoped(plan);

  const sim::ModelSchedule schedule{10.0, 6, 3};
  sim::MonitoredTestbed testbed =
      sim::make_monitored_ediamond(2.0, 77, schedule);

  PressureGovernor::Config cfg;
  // The admission bound (4) is the design limit for the backlog signal,
  // and "offered load" means the DES completion rate vs its own slow
  // baseline — steady state reads ~0.5, only a real crowd crosses 1.
  cfg.ingest_backlog_limit = 4.0;
  cfg.offered_load_limit = 2.0;
  cfg.min_dwell_s = 15.0;
  // 4 tokens per T_DATA: the 5x burst outruns the budget (engages the
  // ladder), while the post-burst drain (2 per interval at the throttled
  // 2x cost) beats the 1-per-interval arrival rate (recovers).
  cfg.ingest_rate = 0.4;
  cfg.ingest_burst = 4.0;
  PressureGovernor gov(cfg);
  testbed.set_governor(&gov);
  testbed.server_mutable().configure_admission(
      {&gov, 4, sim::IngestOverflowPolicy::kShedOldest});

  CrowdRun run;
  run.intervals = 60;  // burst covers intervals 15..25
  for (std::size_t i = 0; i < run.intervals; ++i) {
    testbed.advance_interval();
    run.peak = std::max(run.peak, gov.level());
    run.max_pending =
        std::max(run.max_pending, testbed.server().pending_intervals());
  }
  run.transitions = gov.transitions();
  run.final_level = gov.level();
  run.rows = testbed.server().total_points();
  run.shed = testbed.server().shed_intervals();
  return run;
}

TEST(FlashCrowd, LadderEngagesShedsBoundedlyAndRecovers) {
  const CrowdRun run = run_flash_crowd();
  // The ladder engaged under the 5x crowd...
  EXPECT_GE(run.peak, PressureLevel::kThrottled);
  ASSERT_FALSE(run.transitions.empty());
  // ...and fully recovered once the crowd passed.
  EXPECT_EQ(run.final_level, PressureLevel::kNormal);
  // No unbounded queue anywhere: the pending bound held throughout.
  EXPECT_LE(run.max_pending, 4u);
  // Overflow was shed — and counted.
  EXPECT_GE(run.shed, 1u);
  // Goodput: at least 70% of capacity (one row per interval) survived.
  EXPECT_GE(run.rows, (run.intervals * 7) / 10);
}

TEST(FlashCrowd, SameSeedRerunsAreBitIdentical) {
  const CrowdRun a = run_flash_crowd();
  const CrowdRun b = run_flash_crowd();
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.shed, b.shed);
}

// -------------------------------------------------- scenario generation

TEST(ScenarioOverload, IntensityZeroIsBitIdenticalToBaseFamily) {
  sim::ScenarioFamilyOptions base;
  base.fault_intensity = 0.5;
  sim::ScenarioFamilyOptions with_field = base;
  with_field.overload_intensity = 0.0;
  sim::ScenarioFamily a(1234, base), b(1234, with_field);
  for (std::size_t i = 0; i < 4; ++i) {
    const sim::Scenario sa = a.make(i), sb = b.make(i);
    EXPECT_EQ(sa.seed, sb.seed);
    EXPECT_EQ(sa.faults.report_loss_prob, sb.faults.report_loss_prob);
    EXPECT_EQ(sa.faults.crashes.size(), sb.faults.crashes.size());
    EXPECT_TRUE(sb.faults.ingest_bursts.empty());
    EXPECT_TRUE(sb.faults.cpu_stalls.empty());
    EXPECT_TRUE(sb.faults.query_floods.empty());
    EXPECT_EQ(sa.arrival_rate, sb.arrival_rate);
  }
}

TEST(ScenarioOverload, FullIntensityDrawsOverloadFaults) {
  sim::ScenarioFamilyOptions opts;
  opts.overload_intensity = 1.0;
  sim::ScenarioFamily family(99, opts);
  std::size_t with_burst = 0, with_stall = 0, with_flood = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const sim::Scenario s = family.make(i);
    if (!s.faults.ingest_bursts.empty()) {
      ++with_burst;
      EXPECT_GT(s.faults.ingest_burst_factor, 1.0);
      for (const auto& w : s.faults.ingest_bursts) {
        EXPECT_LT(w.from, w.until);
      }
    }
    if (!s.faults.cpu_stalls.empty()) {
      ++with_stall;
      EXPECT_GT(s.faults.cpu_stall_severity, 0.0);
      EXPECT_LE(s.faults.cpu_stall_severity, 1.0);
    }
    if (!s.faults.query_floods.empty()) {
      ++with_flood;
      EXPECT_GT(s.faults.query_flood_factor, 1.0);
    }
  }
  EXPECT_GE(with_burst, 1u);
  EXPECT_GE(with_stall, 1u);
  EXPECT_GE(with_flood, 1u);

  // Determinism: a second family with equal coordinates draws the same.
  sim::ScenarioFamily again(99, opts);
  const sim::Scenario s0 = family.make(3), s1 = again.make(3);
  ASSERT_EQ(s0.faults.ingest_bursts.size(), s1.faults.ingest_bursts.size());
  for (std::size_t w = 0; w < s0.faults.ingest_bursts.size(); ++w) {
    EXPECT_EQ(s0.faults.ingest_bursts[w].from,
              s1.faults.ingest_bursts[w].from);
    EXPECT_EQ(s0.faults.ingest_bursts[w].until,
              s1.faults.ingest_bursts[w].until);
  }
}

}  // namespace
}  // namespace kertbn
