/// Telemetry must agree with ground truth: the spans and counters the
/// ModelManager emits are reconciled here against the Reconstruction
/// records it returns — version counts, incremental flags, rows_touched.

#include <gtest/gtest.h>

#include <filesystem>

#include "durable/checkpoint.hpp"
#include "durable/recovery.hpp"
#include "kert/model_manager.hpp"
#include "obs_test_util.hpp"
#include "sosim/synthetic.hpp"

namespace kertbn::core {
namespace {

#ifdef KERTBN_OBS_DISABLED
TEST(TelemetryReconcile, CompiledOut) {
  GTEST_SKIP() << "span instrumentation compiled out (KERTBN_OBS=OFF)";
}
#else

using testutil::CollectingSink;
using testutil::ScopedSink;

std::uint64_t tag_u64(const obs::SpanEvent& e, std::string_view key) {
  const obs::SpanTag* tag = testutil::find_tag(e, key);
  EXPECT_NE(tag, nullptr) << "missing tag " << key;
  return tag == nullptr ? 0 : std::get<std::uint64_t>(tag->value);
}

bool tag_bool(const obs::SpanEvent& e, std::string_view key) {
  const obs::SpanTag* tag = testutil::find_tag(e, key);
  EXPECT_NE(tag, nullptr) << "missing tag " << key;
  return tag == nullptr ? false : std::get<bool>(tag->value);
}

void reconcile(const std::vector<Reconstruction>& history,
               const std::vector<obs::SpanEvent>& events,
               const obs::MetricsSnapshot& delta) {
  ASSERT_EQ(events.size(), history.size());
  std::uint64_t rows_touched_total = 0;
  std::size_t incremental_count = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Reconstruction& rec = history[i];
    const obs::SpanEvent& e = events[i];
    EXPECT_EQ(tag_u64(e, "version"), rec.version);
    EXPECT_EQ(tag_u64(e, "window_rows"), rec.window_rows);
    EXPECT_EQ(tag_u64(e, "rows_touched"), rec.rows_touched);
    EXPECT_EQ(tag_bool(e, "incremental"), rec.incremental);
    EXPECT_EQ(tag_bool(e, "discretizer_refit"), rec.discretizer_refit);
    rows_touched_total += rec.rows_touched;
    incremental_count += rec.incremental ? 1 : 0;
  }
  EXPECT_EQ(delta.counter("kert.reconstruct.count"), history.size());
  EXPECT_EQ(delta.counter("kert.reconstruct.incremental_hits"),
            incremental_count);
  EXPECT_EQ(delta.counter("kert.reconstruct.full_recounts"),
            history.size() - incremental_count);
  EXPECT_EQ(delta.counter("kert.rows_touched"), rows_touched_total);
}

TEST(TelemetryReconcile, ContinuousFullReconstructions) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::instance().snapshot();

  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{10.0, 12, 3};
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  Rng rng(7);
  for (int cycle = 1; cycle <= 4; ++cycle) {
    const bn::Dataset window = env.generate(36, rng);
    manager.reconstruct(cycle * 120.0, window);
  }

  reconcile(manager.history(), sink->spans_named("kert.reconstruct"),
            obs::MetricsRegistry::instance().snapshot().delta_since(before));
}

TEST(TelemetryReconcile, IncrementalDiscreteTracksHitsAndRefits) {
  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::instance().snapshot();

  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager::Config cfg;
  cfg.schedule = sim::ModelSchedule{10.0, 12, 3};
  cfg.bins = 3;
  cfg.incremental = true;
  // Wide drift margin: this test reconciles telemetry, not the refit
  // policy — keep the discretizer stable so the incremental path fires
  // (the heavy-tailed service times stray past the default 5% margin).
  cfg.discretizer_range_tolerance = 5.0;
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  Rng rng(11);

  bn::Dataset window = env.generate(36, rng);
  const std::size_t max_rows = cfg.schedule.points_per_window();
  for (int cycle = 1; cycle <= 4; ++cycle) {
    manager.reconstruct(cycle * 120.0, window);
    // Slide one segment of fresh rows in, observed through the
    // incremental layer exactly as the management server would feed it.
    const bn::Dataset fresh = env.generate(12, rng);
    for (std::size_t r = 0; r < fresh.rows(); ++r) {
      window.add_row(std::vector<double>(fresh.row(r).begin(),
                                         fresh.row(r).end()));
      manager.observe_row(fresh.row(r));
    }
    window.keep_last_rows(max_rows);
  }

  const auto& history = manager.history();
  ASSERT_EQ(history.size(), 4u);
  // At least one later reconstruction must have hit the incremental path
  // (stable synthetic data stays inside the discretizer's fitted range).
  bool any_incremental = false;
  for (const Reconstruction& rec : history) any_incremental |= rec.incremental;
  EXPECT_TRUE(any_incremental);

  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::instance().snapshot().delta_since(before);
  reconcile(history, sink->spans_named("kert.reconstruct"), delta);
  EXPECT_EQ(delta.counter("kert.rows_observed"), 4u * 12u);

  std::size_t refits = 0;
  for (const Reconstruction& rec : history) refits += rec.discretizer_refit;
  EXPECT_EQ(delta.counter("kert.reconstruct.discretizer_refits"), refits);
  // D's CPT is materialized once per discretizer version: by the rebuild
  // that refits, and reused by every incremental rebuild after it.
  EXPECT_EQ(sink->spans_named("kert.response_cpt").size(), refits);
}

// A restart's set-up shows by phase: one recovery holds exactly one
// checkpoint load, one model parse, one journal replay and one snapshot
// build, each a direct child of durable.recover.
TEST(TelemetryReconcile, RecoverySplitsIntoChildSpans) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(testing::TempDir()) / "kertbn_recovery_child_spans";
  fs::remove_all(dir);
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  ModelManager::Config cfg;
  cfg.bins = 3;
  cfg.publish_snapshots = true;
  Rng rng(13);
  {
    sim::ManagementServer server(env.workflow().service_names(),
                                 cfg.schedule);
    ModelManager manager(env.workflow(), env.sharing(), cfg);
    manager.reconstruct(60.0, env.generate(60, rng));
    durable::ServerJournal journal{durable::JournalConfig{dir.string()}};
    journal.attach(server);
    durable::CheckpointStore store({dir.string()});
    const bn::Dataset rows = env.generate(4, rng);
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      sim::AgentReport report;
      for (std::size_t s = 0; s + 1 < rows.cols(); ++s) {
        report.service_means.push_back({s, rows.value(r, s)});
      }
      server.ingest_interval({report}, rows.value(r, rows.cols() - 1));
      if (r == 1) {
        store.write(durable::capture_checkpoint(server, manager, 70.0,
                                                journal.last_seq()));
      }
    }
    durable::ServerJournal::detach(server);
  }

  auto sink = std::make_shared<CollectingSink>();
  ScopedSink scoped(sink);
  sim::ManagementServer server(env.workflow().service_names(), cfg.schedule);
  ModelManager manager(env.workflow(), env.sharing(), cfg);
  const durable::RecoveryReport report =
      durable::RecoveryManager(dir.string()).recover(server, &manager, 80.0);
  EXPECT_TRUE(report.model_restored);
  EXPECT_EQ(report.replayed_ingests, 2u);

  const auto recover = sink->spans_named("durable.recover");
  ASSERT_EQ(recover.size(), 1u);
  for (const char* phase : {"durable.checkpoint.load", "kert.model.parse",
                            "durable.replay", "kert.snapshot.build"}) {
    const auto spans = sink->spans_named(phase);
    ASSERT_EQ(spans.size(), 1u) << phase;
    EXPECT_EQ(spans[0].parent_id, recover[0].span_id) << phase;
    EXPECT_LE(spans[0].duration_ns, recover[0].duration_ns) << phase;
  }
  fs::remove_all(dir);
}

#endif  // KERTBN_OBS_DISABLED

}  // namespace
}  // namespace kertbn::core
