/// The acceptance round-trip: run the eDiaMoND scenario with the JSONL
/// file sink enabled, parse the emitted events back, and reconcile them
/// against the ModelManager's Reconstruction history and the metrics
/// registry. Guarantees the on-disk schema actually carries the telemetry
/// it advertises. A second case pins the exact bytes of each line type.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "jsonl_util.hpp"
#include "kert/model_manager.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "sosim/des_env.hpp"

namespace kertbn::core {
namespace {

/// The exact bytes FileSink writes for each event type: field order,
/// number formats, string escaping and the trailing-zero bucket elision.
TEST(SinkRoundtrip, FileSinkLinesArePinned) {
  const std::string path = ::testing::TempDir() + "kertbn_obs_pinned_" +
                           std::to_string(::getpid()) + ".jsonl";
  {
    obs::FileSink sink(path);
    obs::SpanEvent span;
    span.name = "kert.reconstruct";
    span.trace_id = 3;
    span.span_id = 4;
    span.parent_id = 3;
    span.thread_id = 1;
    span.start_ns = 81234;
    span.duration_ns = 1523011;
    span.tags = {{"version", std::uint64_t{2}},
                 {"incremental", true},
                 {"at", 0.1 + 0.2},
                 {"reason", std::string("tab\there \"q\" \x01")}};
    sink.on_span(span);
    sink.on_event(obs::LogEvent{
        "kert.drift.advisory", 99, {{"stream", std::string("a\\b\n")}}});
    obs::MetricsSnapshot snap;
    snap.counters["c.one"] = 7;
    snap.gauges["g\"q"] = -1.5;
    obs::HistogramStats h;
    h.count = 3;
    h.sum = 10;
    h.max = 6;
    h.buckets[0] = 1;
    h.buckets[3] = 2;
    snap.histograms["span.x"] = h;
    snap.histograms["span.y"] = obs::HistogramStats{};
    sink.on_metrics(snap, 123);
  }
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(
      text,
      R"({"type":"span","name":"kert.reconstruct","trace":3,"span":4,)"
      R"("parent":3,"thread":1,"t_ns":81234,"dur_ns":1523011,"tags":)"
      R"({"version":2,"incremental":true,"at":0.30000000000000004,)"
      R"("reason":"tab\there \"q\" \u0001"}})"
      "\n"
      R"({"type":"event","name":"kert.drift.advisory","t_ns":99,)"
      R"("tags":{"stream":"a\\b\n"}})"
      "\n"
      R"({"type":"metrics","t_ns":123,"counters":{"c.one":7},)"
      R"("gauges":{"g\"q":-1.5},"histograms":{)"
      R"("span.x":{"count":3,"sum":10,"max":6,"buckets":[1,0,0,2]},)"
      R"("span.y":{"count":0,"sum":0,"max":0,"buckets":[]}}})"
      "\n");
}

#ifdef KERTBN_OBS_DISABLED
TEST(SinkRoundtrip, CompiledOut) {
  GTEST_SKIP() << "span instrumentation compiled out (KERTBN_OBS=OFF)";
}
#else

using testutil::as_u64;
using testutil::at;
using testutil::Json;

class TempJsonl {
 public:
  TempJsonl() {
    path_ = ::testing::TempDir() + "kertbn_obs_roundtrip_" +
            std::to_string(::getpid()) + ".jsonl";
  }
  ~TempJsonl() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SinkRoundtrip, EdiamondScenarioEventsReconcile) {
  TempJsonl file;
  obs::set_sink(std::make_shared<obs::FileSink>(file.path()));
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::instance().snapshot();

  // A compressed examples/ediamond_scenario: DES test-bed, periodic
  // reconstruction every T_CON over the sliding window.
  const sim::ModelSchedule schedule{5.0, 6, 3};
  sim::DesEnvironment testbed = sim::make_ediamond_des_environment(0.8, 7);
  ModelManager::Config cfg;
  cfg.schedule = schedule;
  ModelManager manager(testbed.workflow(), wf::ResourceSharing{}, cfg);
  for (int cycle = 1; cycle <= 4; ++cycle) {
    testbed.run_for(schedule.t_con());
    const double now = testbed.now();
    manager.maybe_reconstruct(
        now, testbed.dataset_between(
                 std::max(0.0, now - schedule.window_seconds()), now,
                 schedule.t_data));
  }
  ASSERT_GE(manager.history().size(), 3u);

  obs::publish_metrics();
  obs::flush_sink();
  obs::set_sink(nullptr);

  const std::vector<Json> events = testutil::parse_jsonl_file(file.path());
  ASSERT_FALSE(events.empty());

  // Every line is a typed event.
  std::vector<const Json*> reconstruct_spans;
  const Json* metrics_event = nullptr;
  for (const Json& e : events) {
    const std::string& type = at(e, "type").string;
    ASSERT_TRUE(type == "span" || type == "metrics");
    if (type == "span" && at(e, "name").string == "kert.reconstruct") {
      reconstruct_spans.push_back(&e);
    }
    if (type == "metrics") metrics_event = &e;
  }

  // One reconstruction span per history record, tags matching exactly.
  const auto& history = manager.history();
  ASSERT_EQ(reconstruct_spans.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Json& tags = at(*reconstruct_spans[i], "tags");
    EXPECT_EQ(as_u64(at(tags, "version")), history[i].version);
    EXPECT_EQ(as_u64(at(tags, "window_rows")), history[i].window_rows);
    EXPECT_EQ(as_u64(at(tags, "rows_touched")), history[i].rows_touched);
    EXPECT_EQ(at(tags, "incremental").boolean, history[i].incremental);
    EXPECT_DOUBLE_EQ(at(tags, "at").number, history[i].at);
    EXPECT_GT(as_u64(at(*reconstruct_spans[i], "dur_ns")), 0u);
  }

  // Span timestamps are monotone in emission order (same timebase).
  for (std::size_t i = 1; i < reconstruct_spans.size(); ++i) {
    EXPECT_GE(as_u64(at(*reconstruct_spans[i], "t_ns")),
              as_u64(at(*reconstruct_spans[i - 1], "t_ns")));
  }

  // The final metrics snapshot covers this run's reconstructions (the
  // registry is process-global, so compare as a delta against `before`).
  ASSERT_NE(metrics_event, nullptr);
  const Json& counters = at(*metrics_event, "counters");
  EXPECT_EQ(as_u64(at(counters, "kert.reconstruct.count")) -
                before.counter("kert.reconstruct.count"),
            history.size());
  // The span-duration histogram made it to disk too.
  const Json& histograms = at(*metrics_event, "histograms");
  ASSERT_NE(histograms.find("span.kert.reconstruct"), nullptr);
  EXPECT_GE(as_u64(at(at(histograms, "span.kert.reconstruct"), "count")),
            history.size());
}

#endif  // KERTBN_OBS_DISABLED

}  // namespace
}  // namespace kertbn::core
