/// Tests for the benchmark's own arithmetic on hand-built inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(double(i));  // unsorted
  return v;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
}

TEST(Percentile, SmallAndEmptySamples) {
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({3.0, 1.0}, 0.5), 1.0);  // lower middle
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, SamplesBeyondAndNeeded) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
  EXPECT_EQ(samples_needed(0.99), 1000u);
  EXPECT_EQ(samples_needed(0.9), 100u);
  EXPECT_EQ(samples_needed(0.5), 20u);
}

TEST(LatencyHistogram, ExactBelowTwoMicroseconds) {
  LatencyHistogram h;
  for (int v = 1; v <= 100; ++v) h.record(v * 10);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile_ns(0.5), 500.0);
  EXPECT_EQ(h.percentile_ns(0.99), 990.0);
  EXPECT_TRUE(std::isnan(LatencyHistogram().percentile_ns(0.5)));
}

TEST(LatencyHistogram, WithinATenthOfAPercentAbove) {
  LatencyHistogram h;
  std::vector<double> exact;
  for (int i = 1; i <= 1000; ++i) {
    const std::int64_t ns = 3000 + std::int64_t(i) * i * 37;  // to 37 ms
    h.record(ns);
    exact.push_back(double(ns));
  }
  for (double q : {0.5, 0.9, 0.99}) {
    const double want = percentile(exact, q);
    EXPECT_NEAR(h.percentile_ns(q), want, want * 1e-3) << q;
  }
}

TEST(FailedShare, CountsAgainstAttempted) {
  EXPECT_EQ(failed_share(0, 0), 0.0);
  EXPECT_EQ(failed_share(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(failed_share(3, 12), 0.25);
  EXPECT_EQ(failed_share(5, 5), 1.0);
}

TEST(Efficiency, StripeRatio) {
  // A 2-worker sweep at half the serial time is perfect scaling.
  EXPECT_DOUBLE_EQ(stripe_efficiency(10.0, 5.0, 2), 1.0);
  // No speed-up at all with two workers is half efficiency.
  EXPECT_DOUBLE_EQ(stripe_efficiency(10.0, 10.0, 2), 0.5);
}

TEST(Efficiency, ParallelRatio) {
  // 1,000 tenants at 40 us each on 4 shards ideally take 10 ms a tick.
  EXPECT_DOUBLE_EQ(parallel_efficiency(40e-6, 1000, 4, 0.010), 1.0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(40e-6, 1000, 4, 0.020), 0.5);
}

/// root [0,100) with children [10,30) and [20,50) overlapping, plus a
/// grandchild [12,14) under the first child; a second root [200,260)
/// with one child [200,230).
std::vector<Span> tree() {
  return {
      Span{0, -1, 1, 0, 100},   Span{1, 0, 1, 10, 30}, Span{2, 1, 1, 12, 14},
      Span{1, 0, 1, 20, 50},    Span{0, -1, 2, 200, 260},
      Span{1, 4, 2, 200, 230},
  };
}

TEST(Spans, SelfTimeSubtractsChildUnion) {
  const auto self = self_times_ns(tree());
  ASSERT_EQ(self.size(), 6u);
  EXPECT_EQ(self[0], 100 - 40);  // children cover [10,50)
  EXPECT_EQ(self[1], 20 - 2);
  EXPECT_EQ(self[2], 2);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 60 - 30);
  EXPECT_EQ(self[5], 30);
}

TEST(Spans, SelfTimeClipsChildrenToParent) {
  const std::vector<Span> spans = {Span{0, -1, 0, 0, 10},
                                   Span{1, 0, 0, 5, 15}};
  EXPECT_EQ(self_times_ns(spans)[0], 5);
}

TEST(Spans, CoverageOverRoots) {
  // Roots last 100 + 60; their direct children cover 40 + 30.
  EXPECT_DOUBLE_EQ(coverage(tree()), 70.0 / 160.0);
  EXPECT_EQ(coverage({}), 1.0);
}

TEST(Spans, DurationsByName) {
  const auto d = durations_us(tree(), 1);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 0.020);
  const auto s = durations_us(tree(), 1, /*self=*/true);
  EXPECT_DOUBLE_EQ(s[0], 0.018);
}

TEST(Spans, LogNestsUnderOpenSpan) {
  const std::vector<const char*> names = {"a", "b"};
  SpanLog log("t", &names);
  EXPECT_EQ(log.open(0, 1), -1);  // not recording
  log.set_recording(true);
  {
    Scope outer(&log, 0, 7);
    Scope inner(&log, 1, 7);
  }
  Scope after(&log, 1, 8);
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, -1);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

}  // namespace
}  // namespace e2e
