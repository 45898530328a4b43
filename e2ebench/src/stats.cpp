#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace e2e {

namespace {

/// 1-based nearest rank of the q-percentile among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  if (q <= 0.0) return 1;
  // The epsilon keeps q·n that is an integer in exact arithmetic (0.99 ·
  // 100) from rounding up a rank in binary floating point.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

std::size_t samples_needed(double q) {
  std::size_t n = kMinBeyond + 1;
  while (samples_beyond(n, q) < kMinBeyond) ++n;
  return n;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

LatencyHistogram::LatencyHistogram() : buckets_(2 * kSub + 40 * kSub, 0) {}

void LatencyHistogram::record(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t idx = 0;
  if (v < 2 * kSub) {
    idx = static_cast<std::size_t>(v);
  } else {
    // shift >= 1 puts v >> shift in [kSub, 2 kSub).
    const int shift = std::bit_width(v) - 11;
    idx = 2 * kSub + static_cast<std::size_t>(shift - 1) * kSub +
          static_cast<std::size_t>((v >> shift) - kSub);
  }
  ++buckets_[std::min(idx, buckets_.size() - 1)];
  ++count_;
}

double LatencyHistogram::percentile_ns(double q) const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(count_, q);
  std::size_t seen = 0;
  for (std::size_t idx = 0; idx < buckets_.size(); ++idx) {
    seen += buckets_[idx];
    if (seen < rank) continue;
    if (idx < 2 * kSub) return static_cast<double>(idx);
    const std::size_t shift = (idx - 2 * kSub) / kSub + 1;
    const double lo =
        static_cast<double>((kSub + (idx - 2 * kSub) % kSub) << shift);
    return lo + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double failed_share(std::size_t failed, std::size_t attempted) {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double stripe_efficiency(double serial_s, double parallel_s,
                         std::size_t workers) {
  return serial_s / (static_cast<double>(workers) * parallel_s);
}

double parallel_efficiency(double tenant_tick_s, std::size_t tenants,
                           std::size_t shards, double tick_wall_s) {
  return tenant_tick_s * static_cast<double>(tenants) /
         (static_cast<double>(shards) * tick_wall_s);
}

}  // namespace e2e
