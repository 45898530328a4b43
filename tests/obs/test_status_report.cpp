/// StatusReport: lossless JSON round trip (struct -> text -> equal
/// struct), graceful rejection of malformed input, recovery-report
/// mirroring, and the ModelQualityMonitor's live report/emit path on a
/// monitored test-bed.

#include "obs/quality/status.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "jsonl_util.hpp"
#include "kert/model_manager.hpp"
#include "obs/quality/monitor.hpp"
#include "obs/sink.hpp"
#include "sosim/testbed.hpp"

namespace kertbn::quality {
namespace {

namespace fs = std::filesystem;
using testutil::at;
using testutil::Json;

/// A report with every field populated with awkward values (negative
/// times, non-representable decimals, strings needing escapes).
StatusReport full_report() {
  StatusReport r;
  r.generated_at = 123.456789012345678;
  r.model_version = 7;
  r.model_health = "stale";
  r.health_transitions = 5;
  r.recent_transitions.push_back(
      {60.0, "none", "fresh", "initial construction"});
  r.recent_transitions.push_back(
      {120.5, "fresh", "stale", "confirmed drift on stream \"response\"\n"});
  r.failed_reconstructions = 2;
  r.stale_skips = 3;
  r.last_failure_reason = "window too small";
  r.drift_notices = 1;
  r.last_drift_reason = "confirmed drift on stream response";
  r.overall_drift = "confirmed";
  r.scorer_ready = true;
  r.scored_snapshot_version = 7;
  r.rows_scored = 41;
  r.rows_unscored = 4;
  StreamStatus s;
  s.name = "response";
  s.count = 41;
  s.mean_abs_err = 0.1 + 0.2;  // 0.30000000000000004 — needs %.17g
  s.mean_z = -1.25e-3;
  s.rms_z = 2.7182818284590452;
  s.mean_log_score = -3.3333333333333335;
  s.coverage = 0.9024390243902439;
  s.drift = "confirmed";
  s.cusum = 6.25;
  s.page_hinkley = 0.125;
  s.predicted_mean = 1.5;
  s.predicted_stddev = 0.223606797749979;
  s.band_lo = 1.1322092701310453;
  s.band_hi = 1.8677907298689547;
  r.streams.push_back(s);
  RecoveryStatus rec;
  rec.checkpoint_loaded = true;
  rec.server_restored = true;
  rec.model_restored = false;
  rec.checkpoint_seq = 99;
  rec.replayed_records = 12;
  rec.skipped_crc = 1;
  rec.torn_tails = 1;
  rec.replayed_ingests = 10;
  rec.replayed_misses = 2;
  rec.malformed_payloads = 0;
  r.recovery = rec;
  r.query_count = 5000;
  r.query_latency_p50_ns = 1200;
  r.query_latency_p95_ns = 4800;
  r.query_latency_p99_ns = 9600;
  r.simd_tier = "avx2";
  r.plan_cache_hits = 4321;
  r.plan_cache_misses = 87;
  return r;
}

TEST(StatusReport, JsonRoundTripIsLossless) {
  const StatusReport r = full_report();
  const std::string text = r.to_json();
  // Single line, suitable for a JSONL feed.
  EXPECT_EQ(text.find('\n'), std::string::npos);
  const std::optional<StatusReport> back = status_report_from_json(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

TEST(StatusReport, RoundTripWithoutRecoveryAndEmptyVectors) {
  StatusReport r;
  r.generated_at = -1.0;
  r.model_health = "none";
  r.overall_drift = "none";
  const std::optional<StatusReport> back =
      status_report_from_json(r.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
  EXPECT_FALSE(back->recovery.has_value());
  EXPECT_TRUE(back->streams.empty());
  EXPECT_TRUE(back->recent_transitions.empty());
}

TEST(StatusReport, MalformedInputReturnsNullopt) {
  EXPECT_FALSE(status_report_from_json("").has_value());
  EXPECT_FALSE(status_report_from_json("not json").has_value());
  EXPECT_FALSE(status_report_from_json("{}").has_value());
  EXPECT_FALSE(
      status_report_from_json("{\"type\":\"event\"}").has_value());
  // Torn tail: a valid prefix cut mid-way must not parse.
  const std::string text = full_report().to_json();
  EXPECT_FALSE(
      status_report_from_json(text.substr(0, text.size() / 2)).has_value());
  // Deep nesting is rejected by the reader's depth bound, not by running
  // out of stack.
  EXPECT_FALSE(
      status_report_from_json(std::string(1'000'000, '[')).has_value());
}

TEST(StatusReport, OutOfRangeCountsReadAsZero) {
  const std::optional<StatusReport> r = status_report_from_json(
      R"({"type":"status_report","model_version":-1,"rows_scored":1e300,)"
      R"("query_count":42})");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->model_version, 0u);
  EXPECT_EQ(r->rows_scored, 0u);
  EXPECT_EQ(r->query_count, 42u);
}

TEST(StatusReport, RecoveryStatusMirrorsRecoveryReport) {
  durable::RecoveryReport rep;
  rep.checkpoint_loaded = true;
  rep.server_restored = true;
  rep.model_restored = true;
  rep.checkpoint_seq = 17;
  rep.replay.records = 40;
  rep.replay.skipped_crc = 2;
  rep.replay.torn_tails = 1;
  rep.replayed_ingests = 33;
  rep.replayed_misses = 7;
  rep.malformed_payloads = 3;
  const RecoveryStatus s = recovery_status_from(rep);
  EXPECT_TRUE(s.checkpoint_loaded);
  EXPECT_TRUE(s.server_restored);
  EXPECT_TRUE(s.model_restored);
  EXPECT_EQ(s.checkpoint_seq, 17u);
  EXPECT_EQ(s.replayed_records, 40u);
  EXPECT_EQ(s.skipped_crc, 2u);
  EXPECT_EQ(s.torn_tails, 1u);
  EXPECT_EQ(s.replayed_ingests, 33u);
  EXPECT_EQ(s.replayed_misses, 7u);
  EXPECT_EQ(s.malformed_payloads, 3u);
}

/// Whole-path check: a monitor riding a monitored test-bed produces a
/// coherent report, and emit_status() pushes a parseable copy through the
/// JSONL sink.
TEST(StatusReport, MonitorReportReflectsLivePipeline) {
  const sim::ModelSchedule schedule{10.0, 6, 3};
  sim::MonitoredTestbed tb = sim::make_monitored_ediamond(1.0, 21, schedule);

  core::ModelManager::Config cfg;
  cfg.schedule = schedule;
  cfg.bins = 3;
  cfg.publish_snapshots = true;
  core::ModelManager manager(tb.environment().workflow(),
                             wf::ResourceSharing{}, cfg);

  ModelQualityMonitor::Config mcfg;
  mcfg.clock = [&tb] { return tb.now(); };
  ModelQualityMonitor monitor(manager, mcfg);
  tb.server_mutable().add_row_observer(
      [&monitor](std::span<const double> row) { monitor.observe_row(row); });

  // Before any model exists, every observed row counts as unscored.
  tb.advance_construction_intervals(
      2, [&](double now) { manager.maybe_reconstruct(now, tb.window()); });
  ASSERT_TRUE(manager.has_model());
  EXPECT_GT(monitor.rows_unscored(), 0u);

  // After the first construction the scorer adopts the snapshot and rows
  // start scoring.
  tb.advance_construction_intervals(
      3, [&](double now) { manager.maybe_reconstruct(now, tb.window()); });
  ASSERT_TRUE(monitor.scorer().ready());
  EXPECT_GT(monitor.scorer().rows_scored(), 0u);

  // The final reconstruction fired *after* the last observed row; advance
  // until one more row lands so the monitor syncs to the newest snapshot.
  while (!tb.advance_interval()) {
  }
  ASSERT_GT(monitor.scorer().rows_scored(), 0u);

  const StatusReport r = monitor.report();
  EXPECT_EQ(r.generated_at, tb.now());
  EXPECT_EQ(r.model_version, manager.version());
  EXPECT_EQ(r.model_health, std::string(core::to_string(manager.health())));
  EXPECT_GE(r.health_transitions, 1u);
  EXPECT_FALSE(r.recent_transitions.empty());
  EXPECT_TRUE(r.scorer_ready);
  EXPECT_EQ(r.scored_snapshot_version, manager.version());
  EXPECT_EQ(r.rows_scored, monitor.scorer().rows_scored());
  EXPECT_EQ(r.rows_unscored, monitor.rows_unscored());
  ASSERT_EQ(r.streams.size(),
            tb.environment().workflow().service_count() + 1);
  EXPECT_EQ(r.streams.back().name, "response");
  for (std::size_t i = 0; i < r.streams.size(); ++i) {
    const StreamStatus& s = r.streams[i];
    EXPECT_EQ(s.count, r.rows_scored);
    EXPECT_TRUE(std::isfinite(s.predicted_mean));
    EXPECT_EQ(drift_state_from_string(s.drift.c_str()),
              monitor.detector(i).state());
  }
  EXPECT_EQ(r.overall_drift,
            std::string(to_string(monitor.overall_drift())));
  EXPECT_FALSE(r.recovery.has_value());

  // Attaching recovery provenance shows up in subsequent reports.
  durable::RecoveryReport rep;
  rep.server_restored = true;
  rep.replayed_ingests = 9;
  monitor.set_recovery(rep);
  const StatusReport r2 = monitor.report();
  ASSERT_TRUE(r2.recovery.has_value());
  EXPECT_EQ(r2.recovery->replayed_ingests, 9u);

  // The report survives its own serialization.
  const std::optional<StatusReport> back =
      status_report_from_json(r2.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r2);

  // emit_status() pushes the same JSON through the event sink.
  const std::string path = ::testing::TempDir() + "kertbn_status_" +
                           std::to_string(::getpid()) + ".jsonl";
  fs::remove(path);
  obs::set_sink(std::make_shared<obs::FileSink>(path));
  monitor.emit_status();
  obs::flush_sink();
  obs::set_sink(nullptr);
  const std::vector<Json> events = testutil::parse_jsonl_file(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(at(events.front(), "name").string, "kert.quality.status");
  const std::optional<StatusReport> emitted = status_report_from_json(
      at(at(events.front(), "tags"), "report").string);
  ASSERT_TRUE(emitted.has_value());
  EXPECT_EQ(emitted->model_version, manager.version());
  fs::remove(path);
}

}  // namespace
}  // namespace kertbn::quality
