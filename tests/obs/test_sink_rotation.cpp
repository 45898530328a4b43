/// Bounded FileSink: size-capped rotation to `<path>.1`, drop-and-count
/// when rotation fails, self-healing once the obstruction clears, and the
/// LogEvent serialization round trip.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "jsonl_util.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace kertbn::obs {
namespace {

namespace fs = std::filesystem;
using testutil::as_u64;
using testutil::at;
using testutil::Json;

class TempPath {
 public:
  explicit TempPath(const std::string& tag) {
    path_ = ::testing::TempDir() + "kertbn_" + tag + "_" +
            std::to_string(::getpid()) + ".jsonl";
    fs::remove(path_);
    fs::remove_all(path_ + ".1");
  }
  ~TempPath() {
    fs::remove(path_);
    fs::remove_all(path_ + ".1");
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

LogEvent event_with_payload(std::size_t i, const std::string& payload) {
  LogEvent ev;
  ev.name = "test.event";
  ev.t_ns = i;
  ev.tags.push_back({"payload", payload});
  ev.tags.push_back({"index", static_cast<std::uint64_t>(i)});
  return ev;
}

TEST(FileSinkRotation, RotatesAtCapAndKeepsAllRecentLines) {
  TempPath file("rotate");
  FileSink sink(file.str(), FileSink::Options{.max_bytes = 2048});

  const std::string payload(100, 'x');
  for (std::size_t i = 0; i < 60; ++i) {
    sink.on_event(event_with_payload(i, payload));
  }
  sink.flush();

  EXPECT_GE(sink.rotations(), 1u);
  EXPECT_EQ(sink.dropped_events(), 0u);
  ASSERT_TRUE(fs::exists(file.str()));
  ASSERT_TRUE(fs::exists(file.str() + ".1"));
  // Neither generation exceeds the cap (each line is well under it).
  EXPECT_LE(fs::file_size(file.str()), 2048u);
  EXPECT_LE(fs::file_size(file.str() + ".1"), 2048u);

  // Every surviving line still parses, and the newest event is in the
  // current file (rotation never loses the tail).
  const std::vector<Json> current = testutil::parse_jsonl_file(file.str());
  const std::vector<Json> old = testutil::parse_jsonl_file(file.str() + ".1");
  ASSERT_FALSE(current.empty());
  ASSERT_FALSE(old.empty());
  EXPECT_EQ(as_u64(at(current.back(), "t_ns")), 59u);
  // Old + current hold a contiguous suffix of the emitted events.
  const std::uint64_t first_kept = as_u64(at(old.front(), "t_ns"));
  std::uint64_t expect = first_kept;
  for (const auto* batch : {&old, &current}) {
    for (const Json& e : *batch) {
      EXPECT_EQ(as_u64(at(e, "t_ns")), expect);
      ++expect;
    }
  }
  EXPECT_EQ(expect, 60u);
}

TEST(FileSinkRotation, UnboundedSinkNeverRotates) {
  TempPath file("unbounded");
  FileSink sink(file.str());
  const std::string payload(100, 'y');
  for (std::size_t i = 0; i < 100; ++i) {
    sink.on_event(event_with_payload(i, payload));
  }
  sink.flush();
  EXPECT_EQ(sink.rotations(), 0u);
  EXPECT_EQ(sink.dropped_events(), 0u);
  EXPECT_EQ(testutil::parse_jsonl_file(file.str()).size(), 100u);
}

TEST(FileSinkRotation, FailedRotationDropsCountsAndSelfHeals) {
  TempPath file("rotfail");
  FileSink sink(file.str(), FileSink::Options{.max_bytes = 512});
  const std::uint64_t dropped_before =
      MetricsRegistry::instance().snapshot().counter(
          "kert.obs.sink_dropped_events");

  // A non-empty directory squatting on the rotation target defeats both
  // remove() and rename(): rotation must fail until it is cleared.
  fs::create_directories(file.str() + ".1/occupied");

  const std::string payload(100, 'z');
  std::size_t i = 0;
  for (; i < 40; ++i) sink.on_event(event_with_payload(i, payload));
  sink.flush();
  EXPECT_GT(sink.dropped_events(), 0u);
  const std::uint64_t dropped_now =
      MetricsRegistry::instance().snapshot().counter(
          "kert.obs.sink_dropped_events");
  EXPECT_EQ(dropped_now - dropped_before, sink.dropped_events());

  // Clear the obstruction: the next writes rotate and land on disk again.
  fs::remove_all(file.str() + ".1");
  const std::size_t dropped_at_heal = sink.dropped_events();
  for (; i < 50; ++i) sink.on_event(event_with_payload(i, payload));
  sink.flush();
  EXPECT_EQ(sink.dropped_events(), dropped_at_heal);
  EXPECT_GE(sink.rotations(), 1u);
  const std::vector<Json> current = testutil::parse_jsonl_file(file.str());
  ASSERT_FALSE(current.empty());
  EXPECT_EQ(as_u64(at(current.back(), "t_ns")), 49u);
}

TEST(FileSinkRotation, LogEventSerializationRoundTrips) {
  TempPath file("event");
  {
    FileSink sink(file.str());
    LogEvent ev;
    ev.name = "kert.drift.advisory";
    ev.t_ns = 1234;
    ev.tags.push_back({"stream", std::string("response")});
    ev.tags.push_back({"model_version", std::uint64_t{7}});
    ev.tags.push_back({"cusum", 6.25});
    ev.tags.push_back({"confirmed", true});
    ev.tags.push_back({"quote", std::string("say \"hi\"\n")});
    sink.on_event(ev);
    sink.flush();
  }
  const std::vector<Json> events = testutil::parse_jsonl_file(file.str());
  ASSERT_EQ(events.size(), 1u);
  const Json& e = events.front();
  EXPECT_EQ(at(e, "type").string, "event");
  EXPECT_EQ(at(e, "name").string, "kert.drift.advisory");
  EXPECT_EQ(as_u64(at(e, "t_ns")), 1234u);
  const Json& tags = at(e, "tags");
  EXPECT_EQ(at(tags, "stream").string, "response");
  EXPECT_EQ(as_u64(at(tags, "model_version")), 7u);
  EXPECT_DOUBLE_EQ(at(tags, "cusum").number, 6.25);
  EXPECT_TRUE(at(tags, "confirmed").boolean);
  EXPECT_EQ(at(tags, "quote").string, "say \"hi\"\n");
}

TEST(FileSinkRotation, EmitEventReachesInstalledSink) {
  TempPath file("emit");
  set_sink(std::make_shared<FileSink>(file.str()));
  emit_event(LogEvent{"test.emitted", 9, {}});
  flush_sink();
  set_sink(nullptr);
  const std::vector<Json> events = testutil::parse_jsonl_file(file.str());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(at(events.front(), "name").string, "test.emitted");
}

}  // namespace
}  // namespace kertbn::obs
