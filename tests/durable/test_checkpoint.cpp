#include "durable/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/rng.hpp"
#include "common/text_codec.hpp"
#include "fault/file_damage.hpp"
#include "sosim/synthetic.hpp"
#include "support/fnv1a.hpp"

namespace kertbn::durable {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("kertbn_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

sim::ManagementServer make_server() {
  return sim::ManagementServer({"svc_a", "svc_b"}, sim::ModelSchedule{});
}

/// A server with two ingested rows, one carried-forward cell, one
/// quarantined value, and live staleness — every field export must cover.
sim::ManagementServer make_populated_server() {
  sim::ManagementServer server = make_server();
  sim::AgentReport full;
  full.agent = 0;
  full.service_means = {{0, 1.5}, {1, 2.25}};
  server.ingest_interval({full}, 4.125);
  sim::AgentReport partial;
  partial.agent = 0;
  partial.service_means = {{0, 1.75}, {1, -3.0}};  // Negative: quarantined.
  server.ingest_interval({partial}, 4.5);           // svc_b carried forward.
  server.note_missed_interval();
  return server;
}

core::ModelManager make_manager_with_model(std::uint64_t seed) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  kertbn::Rng rng(seed);
  const bn::Dataset train = env.generate(120, rng);
  core::ModelManager::Config config;
  core::ModelManager manager(env.workflow(), env.sharing(), config);
  manager.reconstruct(120.0, train);
  return manager;
}

TEST(Checkpoint, ServerStateRoundTripsBitIdentical) {
  const fs::path dir = fresh_dir("ckpt_roundtrip");
  const sim::ManagementServer server = make_populated_server();
  core::ModelManager manager = make_manager_with_model(11);

  CheckpointStore store(CheckpointStore::Config{dir.string()});
  store.write(capture_checkpoint(server, manager, 360.0, 42));

  std::string error;
  const auto loaded = store.load_newest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->journal_seq, 42u);
  EXPECT_EQ(loaded->sim_now, 360.0);

  const sim::ServerState original = server.export_state();
  EXPECT_EQ(loaded->server.rows, original.rows);
  EXPECT_EQ(loaded->server.cols, original.cols);
  EXPECT_EQ(loaded->server.window, original.window);  // Exact doubles.
  ASSERT_EQ(loaded->server.last_seen.size(), original.last_seen.size());
  for (std::size_t i = 0; i < original.last_seen.size(); ++i) {
    EXPECT_EQ(loaded->server.last_seen[i], original.last_seen[i]);
  }
  EXPECT_EQ(loaded->server.total_points, original.total_points);
  EXPECT_EQ(loaded->server.dropped_intervals, original.dropped_intervals);
  EXPECT_EQ(loaded->server.quarantined_values, original.quarantined_values);
  EXPECT_EQ(loaded->server.consecutive_missed_intervals,
            original.consecutive_missed_intervals);
  // The serialized model survives byte-for-byte.
  EXPECT_EQ(loaded->manager.model_text, manager.export_model_text());
  EXPECT_FALSE(loaded->manager.model_text.empty());
  EXPECT_EQ(loaded->manager.next_due, manager.next_due());
  EXPECT_EQ(loaded->manager.version, manager.version());
}

TEST(Checkpoint, RestoredServerMatchesOriginalIncludingStaleness) {
  const sim::ManagementServer original = make_populated_server();
  ASSERT_GT(original.consecutive_missed_intervals(), 0u);

  sim::ManagementServer restored = make_server();
  ASSERT_TRUE(restored.restore_state(original.export_state()));
  EXPECT_EQ(restored.window_rows(), original.window_rows());
  // Staleness is restored, not reset: the outage survives the crash.
  EXPECT_EQ(restored.consecutive_missed_intervals(),
            original.consecutive_missed_intervals());
  EXPECT_EQ(restored.total_points(), original.total_points());
  EXPECT_EQ(restored.quarantined_values(), original.quarantined_values());
  for (std::size_t r = 0; r < original.window_rows(); ++r) {
    const auto a = original.window().row(r);
    const auto b = restored.window().row(r);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) EXPECT_EQ(a[c], b[c]);
  }
  // Carry-forward memory came along: a report missing svc_b still yields
  // a row in the restored server exactly as it would have pre-crash.
  sim::AgentReport only_a;
  only_a.agent = 0;
  only_a.service_means = {{0, 9.0}};
  EXPECT_TRUE(restored.ingest_interval({only_a}, 10.0));
}

TEST(Checkpoint, RestoreRejectsShapeMismatch) {
  const sim::ManagementServer original = make_populated_server();
  sim::ManagementServer other({"a", "b", "c"}, sim::ModelSchedule{});
  const std::size_t rows_before = other.window_rows();
  EXPECT_FALSE(other.restore_state(original.export_state()));
  EXPECT_EQ(other.window_rows(), rows_before);
}

TEST(Checkpoint, NewestValidWinsOverCorruptNewest) {
  const fs::path dir = fresh_dir("ckpt_newest_valid");
  const sim::ManagementServer server = make_populated_server();
  core::ModelManager manager = make_manager_with_model(13);

  CheckpointStore store(CheckpointStore::Config{dir.string(), 4});
  store.write(capture_checkpoint(server, manager, 100.0, 10));
  store.write(capture_checkpoint(server, manager, 200.0, 20));
  ASSERT_EQ(store.files().size(), 2u);

  // Flip a byte in the middle of the newest file: CRC fails, recovery
  // falls back to the older checkpoint instead of trusting damage.
  ASSERT_TRUE(fault::flip_byte(store.files().back(), 120, 0x10));
  std::string error;
  const auto loaded = store.load_newest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->journal_seq, 10u);
}

TEST(Checkpoint, TornOnlyCheckpointIsRejectedNotFatal) {
  const fs::path dir = fresh_dir("ckpt_torn");
  const sim::ManagementServer server = make_populated_server();
  core::ModelManager manager = make_manager_with_model(17);
  CheckpointStore store(CheckpointStore::Config{dir.string()});
  store.write(capture_checkpoint(server, manager, 100.0, 10));
  ASSERT_TRUE(fault::truncate_tail(store.files().back(), 25));
  std::string error;
  EXPECT_FALSE(store.load_newest(&error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Checkpoint, RetentionKeepsOnlyConfiguredCount) {
  const fs::path dir = fresh_dir("ckpt_retention");
  const sim::ManagementServer server = make_populated_server();
  core::ModelManager manager = make_manager_with_model(19);
  CheckpointStore store(CheckpointStore::Config{dir.string(), 2});
  for (std::uint64_t seq : {5u, 15u, 25u, 35u}) {
    store.write(capture_checkpoint(server, manager, double(seq), seq));
  }
  ASSERT_EQ(store.files().size(), 2u);
  const auto loaded = store.load_newest(nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->journal_seq, 35u);
}

TEST(Checkpoint, RetentionNeverPrunesNewestValidWhenNewestIsTorn) {
  const fs::path dir = fresh_dir("ckpt_torn_newest_keep1");
  const sim::ManagementServer server = make_populated_server();
  core::ModelManager manager = make_manager_with_model(31);
  CheckpointStore store(CheckpointStore::Config{dir.string(), 1});

  // The highest-seq file on disk is torn — the crash that forced the
  // recovery this store is now running after. Post-replay the writer's
  // sequence restarts below it, so the next checkpoint sorts *before*
  // the damaged file.
  store.write(capture_checkpoint(server, manager, 900.0, 90));
  ASSERT_TRUE(fault::truncate_tail(store.files().back(), 25));
  store.write(capture_checkpoint(server, manager, 100.0, 10));

  // Name-order pruning would keep only the torn seq-90 file; the guard
  // must instead drop it and keep the valid seq-10 checkpoint.
  ASSERT_EQ(store.files().size(), 1u);
  std::string error;
  const auto loaded = store.load_newest(&error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->journal_seq, 10u);
}

TEST(Checkpoint, ManagerRestoreServesModelAsStale) {
  core::ModelManager manager = make_manager_with_model(23);
  const core::ManagerCheckpoint ckpt = manager.export_checkpoint();

  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  core::ModelManager fresh(env.workflow(), env.sharing(),
                           core::ModelManager::Config{});
  ASSERT_TRUE(fresh.restore_from_checkpoint(ckpt, 130.0));
  EXPECT_EQ(fresh.health(), core::ModelHealth::kStale);
  EXPECT_EQ(fresh.version(), manager.version());
  EXPECT_EQ(fresh.next_due(), manager.next_due());
  ASSERT_TRUE(fresh.has_model());
  // The restored model is the checkpointed one, byte for byte.
  EXPECT_EQ(fresh.export_model_text(), manager.export_model_text());
}

TEST(Checkpoint, ManagerRestoreWithoutModelKeepsScheduleOnly) {
  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  core::ModelManager never_built(env.workflow(), env.sharing(),
                                 core::ModelManager::Config{});
  const core::ManagerCheckpoint ckpt = never_built.export_checkpoint();
  EXPECT_TRUE(ckpt.model_text.empty());

  core::ModelManager fresh(env.workflow(), env.sharing(),
                           core::ModelManager::Config{});
  EXPECT_TRUE(fresh.restore_from_checkpoint(ckpt, 10.0));
  EXPECT_FALSE(fresh.has_model());
  EXPECT_EQ(fresh.health(), core::ModelHealth::kNone);
}

TEST(Checkpoint, ManagerRestoreRejectsCorruptModelTextGracefully) {
  core::ModelManager manager = make_manager_with_model(29);
  core::ManagerCheckpoint ckpt = manager.export_checkpoint();
  ckpt.model_text = "kertbn-model 1\nworkflow garbage";

  sim::SyntheticEnvironment env = sim::make_ediamond_environment();
  core::ModelManager fresh(env.workflow(), env.sharing(),
                           core::ModelManager::Config{});
  EXPECT_FALSE(fresh.restore_from_checkpoint(ckpt, 130.0));
  EXPECT_FALSE(fresh.has_model());
  // Rejected model, nothing to fall back to: degraded — but alive.
  EXPECT_EQ(fresh.health(), core::ModelHealth::kDegraded);
  // The schedule still recovered; only the model was refused.
  EXPECT_EQ(fresh.next_due(), manager.next_due());
  EXPECT_EQ(fresh.version(), manager.version());
}

// Checkpoint files outlive the process that wrote them, so their bytes
// are a format: this pins the file name and every byte of one written
// checkpoint (populated server, continuous model, non-integral time).
TEST(Checkpoint, WrittenFileBytesArePinned) {
  const fs::path dir = fresh_dir("ckpt_pinned");
  const sim::ManagementServer server = make_populated_server();
  core::ModelManager manager = make_manager_with_model(31);
  CheckpointStore store(CheckpointStore::Config{dir.string()});
  store.write(capture_checkpoint(server, manager, 1.0 / 3.0, 0x1234abcd));

  const std::vector<std::string> files = store.files();
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(fs::path(files[0]).filename().string(),
            "ckpt-000000001234abcd.ck");
  const std::optional<std::string> bytes = text::read_file(files[0]);
  ASSERT_TRUE(bytes.has_value());
  const std::uint64_t h = test_support::fnv1a(*bytes);
  EXPECT_EQ(h, 0x5d1e0d0e9516fa2aull) << std::hex << "hash 0x" << h;
}

}  // namespace
}  // namespace kertbn::durable
