#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "durable/checkpoint.hpp"
#include "durable/journal.hpp"
#include "durable/recovery.hpp"
#include "fault/fault_injector.hpp"
#include "kert/model_manager.hpp"
#include "common/text_codec.hpp"
#include "sosim/testbed.hpp"
#include "support/fnv1a.hpp"
#include "workflow/ediamond.hpp"

namespace kertbn::durable {
namespace {

namespace fs = std::filesystem;

constexpr double kArrival = 0.5;
constexpr std::uint64_t kSeed = 99;
/// Short schedule so windows fill and rotate quickly: T_CON = 60 s,
/// window = 12 rows.
const sim::ModelSchedule kSchedule{10.0, 6, 2};

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("kertbn_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The crash-free reference: same DES seed, no durability layer at all.
sim::ServerState reference_state(std::size_t n_intervals) {
  sim::MonitoredTestbed tb =
      sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
  for (std::size_t i = 0; i < n_intervals; ++i) tb.advance_interval();
  return tb.server().export_state();
}

void expect_states_equal(const sim::ServerState& got,
                         const sim::ServerState& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.window, want.window);  // Exact double equality.
  ASSERT_EQ(got.last_seen.size(), want.last_seen.size());
  for (std::size_t i = 0; i < want.last_seen.size(); ++i) {
    EXPECT_EQ(got.last_seen[i], want.last_seen[i]) << "last_seen[" << i << "]";
  }
  EXPECT_EQ(got.total_points, want.total_points);
  EXPECT_EQ(got.dropped_intervals, want.dropped_intervals);
  EXPECT_EQ(got.quarantined_values, want.quarantined_values);
  EXPECT_EQ(got.duplicate_values, want.duplicate_values);
  EXPECT_EQ(got.consecutive_missed_intervals,
            want.consecutive_missed_intervals);
}

/// The tentpole equivalence: for every crash point, a run that crashes,
/// recovers by journal replay, and continues ends bit-identical to the
/// uninterrupted run. The DES environment and monitoring agents are
/// separate "processes" and survive; only the management server dies.
TEST(CrashRecovery, ReplayIsBitIdenticalAcrossTwentyCrashPoints) {
  constexpr std::size_t kTotalIntervals = 24;
  const sim::ServerState want = reference_state(kTotalIntervals);

  for (std::size_t crash_at = 1; crash_at <= 20; ++crash_at) {
    SCOPED_TRACE("crash after interval " + std::to_string(crash_at));
    const fs::path dir = fresh_dir("crash_bitident_" +
                                   std::to_string(crash_at));
    sim::MonitoredTestbed tb =
        sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
    auto journal =
        std::make_unique<ServerJournal>(JournalConfig{dir.string()});
    journal->attach(tb.server_mutable());
    for (std::size_t i = 0; i < crash_at; ++i) tb.advance_interval();

    // Crash: the server process dies with its in-memory window.
    tb.restart_server();
    journal.reset();

    // Restart: recover (no journal hooks yet), then attach a fresh journal
    // for post-restart ingests.
    const RecoveryReport report =
        RecoveryManager(dir.string())
            .recover(tb.server_mutable(), nullptr, tb.now());
    EXPECT_EQ(report.replay.torn_tails, 0u);
    EXPECT_EQ(report.malformed_payloads, 0u);
    ServerJournal journal2{JournalConfig{dir.string()}};
    journal2.attach(tb.server_mutable());

    for (std::size_t i = crash_at; i < kTotalIntervals; ++i) {
      tb.advance_interval();
    }
    expect_states_equal(tb.server().export_state(), want);
  }
}

/// Same equivalence with the full machinery: a checkpoint mid-run bounds
/// replay, the covered journal prefix is pruned, and a second crash after
/// the checkpoint still recovers bit-identically.
TEST(CrashRecovery, CheckpointPlusReplayMatchesUninterruptedRun) {
  constexpr std::size_t kTotalIntervals = 24;
  constexpr std::size_t kCheckpointAt = 8;
  constexpr std::size_t kCrashAt = 14;
  const sim::ServerState want = reference_state(kTotalIntervals);

  const fs::path dir = fresh_dir("crash_checkpointed");
  sim::MonitoredTestbed tb =
      sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
  wf::Workflow workflow = wf::make_ediamond_workflow();
  core::ModelManager::Config config;
  config.schedule = kSchedule;
  core::ModelManager manager(workflow, wf::ResourceSharing{}, config);

  JournalConfig jconfig{dir.string()};
  jconfig.max_segment_bytes = 1024;  // Force rotation so pruning can bite.
  auto journal = std::make_unique<ServerJournal>(jconfig);
  journal->attach(tb.server_mutable());
  CheckpointStore store(CheckpointStore::Config{dir.string()});

  std::string model_at_checkpoint;
  for (std::size_t i = 0; i < kCrashAt; ++i) {
    tb.advance_interval();
    manager.maybe_reconstruct(tb.now(), tb.window());
    if (i + 1 == kCheckpointAt) {
      const std::uint64_t covered = journal->last_seq();
      store.write(capture_checkpoint(tb.server(), manager, tb.now(),
                                     covered));
      prune_journal(dir.string(), covered);
      model_at_checkpoint = manager.export_model_text();
    }
  }
  ASSERT_FALSE(model_at_checkpoint.empty());

  // Crash both the server and the manager process.
  tb.restart_server();
  journal.reset();
  core::ModelManager manager2(workflow, wf::ResourceSharing{}, config);

  const RecoveryReport report =
      RecoveryManager(dir.string())
          .recover(tb.server_mutable(), &manager2, tb.now());
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_TRUE(report.server_restored);
  EXPECT_TRUE(report.model_restored);
  EXPECT_GT(report.checkpoint_seq, 0u);
  // Replay covered only the events past the checkpoint.
  EXPECT_LT(report.replayed_ingests + report.replayed_misses,
            static_cast<std::size_t>(kCrashAt));
  // The restored model is the checkpointed one (rebuilds after the
  // checkpoint were not persisted; replay re-derives their data) and it
  // serves immediately — stale until the next rebuild.
  EXPECT_EQ(manager2.health(), core::ModelHealth::kStale);
  EXPECT_EQ(manager2.export_model_text(), model_at_checkpoint);

  ServerJournal journal2{jconfig};
  journal2.attach(tb.server_mutable());
  for (std::size_t i = kCrashAt; i < kTotalIntervals; ++i) {
    tb.advance_interval();
    manager2.maybe_reconstruct(tb.now(), tb.window());
  }
  expect_states_equal(tb.server().export_state(), want);

  // The final model is a deterministic function of the final window: the
  // crashed-and-recovered pipeline must publish the identical model text.
  sim::MonitoredTestbed ref =
      sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
  core::ModelManager ref_manager(workflow, wf::ResourceSharing{}, config);
  for (std::size_t i = 0; i < kTotalIntervals; ++i) {
    ref.advance_interval();
    ref_manager.maybe_reconstruct(ref.now(), ref.window());
  }
  EXPECT_EQ(manager2.export_model_text(), ref_manager.export_model_text());
}

/// A crash mid-append tears the journal's final record. Recovery must
/// skip the torn tail (losing exactly that event), keep serving, and —
/// because the sliding window rotates — converge back to the
/// uninterrupted run once the lost row ages out.
TEST(CrashRecovery, TornFinalRecordLosesOneEventThenConverges) {
  constexpr std::size_t kCrashAt = 10;
  constexpr std::size_t kTotalIntervals = 30;  // >= crash + window capacity.

  // An installed fault injector makes the testbed tolerate incomplete
  // intervals, so every run in this test — including the crash-free
  // reference — runs with set_ingest_incomplete(true) to keep the ingest
  // event streams identical.
  const auto tolerant_testbed = [] {
    sim::MonitoredTestbed tb =
        sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
    tb.set_ingest_incomplete(true);
    return tb;
  };
  sim::ServerState want;
  {
    sim::MonitoredTestbed tb = tolerant_testbed();
    for (std::size_t i = 0; i < kTotalIntervals; ++i) tb.advance_interval();
    want = tb.server().export_state();
  }

  // Dry run to learn the journal byte offset at the crash point; the DES
  // is deterministic, so the byte stream repeats exactly.
  std::uint64_t bytes_at_crash = 0;
  std::size_t events_at_crash = 0;
  {
    const fs::path dry = fresh_dir("crash_torn_dry");
    sim::MonitoredTestbed tb = tolerant_testbed();
    ServerJournal journal{JournalConfig{dry.string()}};
    journal.attach(tb.server_mutable());
    for (std::size_t i = 0; i < kCrashAt; ++i) tb.advance_interval();
    bytes_at_crash = journal.writer().bytes_appended();
    events_at_crash = static_cast<std::size_t>(journal.last_seq());
  }
  ASSERT_GT(events_at_crash, 2u);

  const fs::path dir = fresh_dir("crash_torn");
  {
    // Cut 3 bytes into the final record's frame: it lands torn on disk.
    // The plan injects no agent faults, so the DES-side behavior matches
    // the reference exactly; only journal bytes are lost.
    fault::FaultPlan plan;
    plan.journal_write_cutoff =
        static_cast<long long>(bytes_at_crash) - 3;
    fault::ScopedFaultPlan scoped(std::move(plan));
    sim::MonitoredTestbed tb = tolerant_testbed();
    auto journal =
        std::make_unique<ServerJournal>(JournalConfig{dir.string()});
    journal->attach(tb.server_mutable());
    for (std::size_t i = 0; i < kCrashAt; ++i) tb.advance_interval();
    tb.restart_server();
    journal.reset();
  }

  sim::MonitoredTestbed tb = tolerant_testbed();
  // Fast-forward the surviving DES to the crash time (the reconstructed
  // testbed object stands in for the environment that never died).
  for (std::size_t i = 0; i < kCrashAt; ++i) tb.advance_interval();
  tb.restart_server();

  const RecoveryReport report =
      RecoveryManager(dir.string())
          .recover(tb.server_mutable(), nullptr, tb.now());
  // Exactly the torn event is gone; everything durable replayed.
  EXPECT_EQ(report.replay.torn_tails, 1u);
  EXPECT_EQ(report.replayed_ingests + report.replayed_misses,
            events_at_crash - 1);

  ServerJournal journal2{JournalConfig{dir.string()}};
  journal2.attach(tb.server_mutable());
  for (std::size_t i = kCrashAt; i < kTotalIntervals; ++i) {
    tb.advance_interval();
  }
  // The lost row has rotated out of the K·alpha window: the recovered
  // pipeline is indistinguishable from one that never crashed, except in
  // the ingest accounting (one event fewer ever ingested).
  const sim::ServerState got = tb.server().export_state();
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.rows, want.rows);
  for (std::size_t i = 0; i < want.last_seen.size(); ++i) {
    EXPECT_EQ(got.last_seen[i], want.last_seen[i]);
  }
  EXPECT_EQ(got.consecutive_missed_intervals,
            want.consecutive_missed_intervals);
  // At most the one torn event is missing from the lifetime accounting.
  EXPECT_GE(got.total_points + 1, want.total_points);
  EXPECT_LE(got.total_points, want.total_points);
}

/// Recovery with an empty durable directory is a clean cold start.
TEST(CrashRecovery, EmptyDirectoryRecoversToColdStart) {
  const fs::path dir = fresh_dir("crash_cold");
  sim::MonitoredTestbed tb =
      sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
  const RecoveryReport report =
      RecoveryManager(dir.string())
          .recover(tb.server_mutable(), nullptr, 0.0);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.replay.records, 0u);
  EXPECT_EQ(tb.server().window_rows(), 0u);
}

/// Staleness survives the crash: a server that died mid-outage comes back
/// knowing the outage is still in progress.
TEST(CrashRecovery, StalenessIsRestoredNotReset) {
  const fs::path dir = fresh_dir("crash_staleness");
  sim::MonitoredTestbed tb =
      sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
  ServerJournal journal{JournalConfig{dir.string()}};
  journal.attach(tb.server_mutable());
  for (std::size_t i = 0; i < 4; ++i) tb.advance_interval();
  // An outage: three intervals with nothing ingestable.
  tb.server_mutable().note_missed_interval();
  tb.server_mutable().note_missed_interval();
  tb.server_mutable().note_missed_interval();
  const std::size_t staleness =
      tb.server().consecutive_missed_intervals();
  ASSERT_EQ(staleness, 3u);

  tb.restart_server();
  journal.writer().sync();
  ASSERT_EQ(tb.server().consecutive_missed_intervals(), 0u);
  RecoveryManager(dir.string()).recover(tb.server_mutable(), nullptr,
                                        tb.now());
  EXPECT_EQ(tb.server().consecutive_missed_intervals(), staleness);
}

/// Journal segments are a format: this pins the segment names and every
/// byte a journaled testbed run writes (ingests and misses).
TEST(CrashRecovery, JournalSegmentBytesArePinned) {
  const fs::path dir = fresh_dir("crash_pinned");
  {
    sim::MonitoredTestbed tb =
        sim::make_monitored_ediamond(kArrival, kSeed, kSchedule);
    ServerJournal journal{JournalConfig{dir.string(), 4096}};
    journal.attach(tb.server_mutable());
    for (std::size_t i = 0; i < 24; ++i) tb.advance_interval();
    tb.server_mutable().note_missed_interval();
    ServerJournal::detach(tb.server_mutable());
  }
  std::uint64_t h = test_support::kFnvOffset;
  const std::vector<std::string> segments = journal_segments(dir.string());
  ASSERT_GE(segments.size(), 2u);
  for (const std::string& path : segments) {
    h = test_support::fnv1a(fs::path(path).filename().string(), h);
    const std::optional<std::string> bytes = text::read_file(path);
    ASSERT_TRUE(bytes.has_value());
    h = test_support::fnv1a(*bytes, h);
  }
  EXPECT_EQ(h, 0x4d8be0b3b6f65f9full) << std::hex << "hash 0x" << h;
}

}  // namespace
}  // namespace kertbn::durable
