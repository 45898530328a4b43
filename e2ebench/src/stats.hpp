#pragma once
/// \file stats.hpp
/// The benchmark's own arithmetic: percentile selection with the sample
/// counts behind it, failure accounting, and the two efficiency ratios.
/// Kept apart from the workloads so the tests can feed it hand-built
/// inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (q in (0, 1]; q = 0 gives the minimum). NaN when empty.
/// Takes a copy because it partially sorts. Unlike the interpolating
/// kertbn::quantile it always reports a measured sample, and the rule on
/// samples beyond a percentile is defined on its rank.
double percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-percentile of n samples.
/// A percentile is reported only when this is at least kMinBeyond.
std::size_t samples_beyond(std::size_t n, double q);
inline constexpr std::size_t kMinBeyond = 10;

/// Fewest samples for which the q-percentile has kMinBeyond beyond it.
std::size_t samples_needed(double q);

double median(std::vector<double> samples);

/// Fixed-memory latency histogram for sample sets too large to keep
/// (millions of microsecond queries), so the benchmark's own memory does
/// not grow with the system's speed. Values below 2048 ns are exact;
/// above, buckets are 1/1024 of a power of two wide, so a percentile is
/// within 0.1% of the nearest-rank sample (obs::Histogram's power-of-two
/// buckets are too coarse to compare runs with).
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::int64_t ns);
  std::size_t count() const { return count_; }
  /// Nearest-rank percentile in nanoseconds (bucket midpoint); NaN when
  /// empty.
  double percentile_ns(double q) const;

 private:
  static constexpr std::size_t kSub = 1024;
  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
};

/// One named metric as printed: value, unit, and the sample count behind
/// it (1 for a single measurement, 0 for a count or a ratio of counts).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// failed ÷ attempted; 0 when nothing was attempted.
double failed_share(std::size_t failed, std::size_t attempted);

/// Speed-up of a w-worker sweep over the 1-worker sweep of the same
/// batch, per worker: serial_s ÷ (workers · parallel_s). 1 = perfect.
double stripe_efficiency(double serial_s, double parallel_s,
                         std::size_t workers);

/// Share of the shards' capacity a fleet tick turns into tenant work:
/// (solo cost per tenant-tick · tenants) ÷ (shards · tick wall time).
double parallel_efficiency(double tenant_tick_s, std::size_t tenants,
                           std::size_t shards, double tick_wall_s);

}  // namespace e2e
