#include "obs/quality/scorer.hpp"

#include <algorithm>
#include <cmath>

#include "bn/gaussian_inference.hpp"
#include "common/contract.hpp"
#include "obs/metrics.hpp"

namespace kertbn::quality {

namespace {

constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * ln(2*pi)

struct ScorerMetrics {
  obs::Counter& rows_scored;
  obs::Counter& coverage_hits;
  obs::Counter& coverage_total;
  obs::Histogram& abs_err_us;
  obs::Histogram& abs_z_milli;
  obs::Histogram& nll_milli;

  static ScorerMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static ScorerMetrics m{
        reg.counter("kert.quality.rows_scored"),
        reg.counter("kert.quality.coverage_hits"),
        reg.counter("kert.quality.coverage_total"),
        reg.histogram("kert.quality.abs_err_us"),
        reg.histogram("kert.quality.abs_z_milli"),
        reg.histogram("kert.quality.nll_milli"),
    };
    return m;
  }
};

/// Value v with P(X <= v) == p under a discrete distribution whose mass is
/// spread uniformly across each bin's interval (matches
/// ColumnDiscretizer::exceedance's smoothing).
double discrete_quantile(const std::vector<double>& probs,
                         const core::ColumnDiscretizer& column, double p) {
  double cum = 0.0;
  for (std::size_t b = 0; b < probs.size(); ++b) {
    const double mass = probs[b];
    if (cum + mass >= p) {
      const auto [lo, hi] = column.interval_of(b);
      if (mass <= 0.0) return lo;
      const double frac = std::clamp((p - cum) / mass, 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cum += mass;
  }
  return column.interval_of(probs.empty() ? 0 : probs.size() - 1).second;
}

}  // namespace

double StreamScore::rms_z() const {
  return count == 0 ? 0.0
                    : std::sqrt(z_sq_sum / static_cast<double>(count));
}

double normal_quantile(double p) {
  KERTBN_EXPECTS(p > 0.0 && p < 1.0);
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

PredictiveScorer::PredictiveScorer(std::size_t n_services, ScoreOptions opts)
    : n_(n_services), opts_(opts), scores_(n_services + 1) {
  KERTBN_EXPECTS(n_services >= 1);
  KERTBN_EXPECTS(opts_.band_lo > 0.0 && opts_.band_hi < 1.0 &&
                     opts_.band_lo < opts_.band_hi);
}

bool PredictiveScorer::adopt(const core::ModelSnapshot& snapshot) {
  ready_ = false;
  columns_.clear();
  if (snapshot.net.size() != n_ + 1) return false;

  std::vector<Column> columns;
  columns.reserve(n_ + 1);

  if (snapshot.has_tree() && snapshot.discretizer.has_value()) {
    // Discrete serving path: no-evidence marginals off the warm prior
    // tree are mutation-free reads.
    for (std::size_t c = 0; c <= n_; ++c) {
      const std::vector<double> probs = snapshot.prior_tree->posterior(c);
      const core::ColumnDiscretizer& col = snapshot.discretizer->column(c);
      if (probs.size() != col.bins()) return false;
      Column out;
      out.discrete = true;
      out.pred.mean = snapshot.prior_moments[c].mean;
      out.pred.stddev = snapshot.prior_moments[c].stddev;
      out.pred.band_lo_value = discrete_quantile(probs, col, opts_.band_lo);
      out.pred.band_hi_value = discrete_quantile(probs, col, opts_.band_hi);
      out.bin_log_mass.reserve(probs.size());
      for (const double p : probs) {
        out.bin_log_mass.push_back(std::log(std::max(p, opts_.min_prob)));
      }
      out.bin_edges = col.edges();
      columns.push_back(std::move(out));
    }
  } else if (core::all_linear_gaussian(snapshot.net)) {
    const bn::GaussianDistribution joint = bn::joint_gaussian(snapshot.net);
    for (std::size_t c = 0; c <= n_; ++c) {
      Column out;
      out.discrete = false;
      out.pred.mean = joint.mean_of(c);
      const double sd =
          std::sqrt(std::max(joint.variance_of(c), 0.0));
      out.pred.stddev = sd;
      const double safe_sd = std::max(sd, opts_.min_stddev);
      out.pred.band_lo_value =
          out.pred.mean + normal_quantile(opts_.band_lo) * safe_sd;
      out.pred.band_hi_value =
          out.pred.mean + normal_quantile(opts_.band_hi) * safe_sd;
      columns.push_back(std::move(out));
    }
  } else {
    return false;  // e.g. deterministic-max response CPD: left unscored
  }

  for (Column& col : columns) {
    const double safe_sd = std::max(col.pred.stddev, opts_.min_stddev);
    col.inv_sd = 1.0 / safe_sd;
    col.log_norm = -kHalfLog2Pi - std::log(safe_sd);
  }
  columns_ = std::move(columns);
  version_ = snapshot.version;
  ready_ = true;
  return true;
}

std::size_t PredictiveScorer::bin_of(const Column& c, double x) const {
  // Same rule as ColumnDiscretizer::bin_of: first bin whose upper interior
  // edge exceeds x; last bin when none does.
  const auto it = std::upper_bound(c.bin_edges.begin(), c.bin_edges.end(), x);
  return static_cast<std::size_t>(it - c.bin_edges.begin());
}

bool PredictiveScorer::score_row(std::span<const double> row,
                                 std::span<double> z_out) {
  if (!ready_) return false;
  KERTBN_EXPECTS(row.size() == n_ + 1);
  KERTBN_EXPECTS(z_out.size() == n_ + 1);

  const bool telemetry = obs::enabled();
  std::uint64_t covered_streams = 0;
  for (std::size_t c = 0; c <= n_; ++c) {
    const Column& col = columns_[c];
    const double x = row[c];
    const double dx = x - col.pred.mean;
    const double abs_err = std::abs(dx);
    const double z = dx * col.inv_sd;
    double log_score;
    if (col.discrete) {
      log_score = col.bin_log_mass[bin_of(col, x)];
    } else {
      log_score = col.log_norm - 0.5 * z * z;
    }
    const bool covered =
        x >= col.pred.band_lo_value && x <= col.pred.band_hi_value;

    StreamScore& s = scores_[c];
    s.count += 1;
    s.abs_err_sum += abs_err;
    s.z_sum += z;
    s.z_sq_sum += z * z;
    s.log_score_sum += log_score;
    s.covered += covered ? 1 : 0;
    z_out[c] = z;
    covered_streams += covered ? 1 : 0;

    // Registry histograms track the end-to-end response stream only: the
    // ingest path runs per row and per-column records (3 histogram
    // records x every service) dominated its obs cost, while per-service
    // error detail is already served by StreamScore via StatusReport.
    if (telemetry && c == n_) {
      auto& m = ScorerMetrics::get();
      m.abs_err_us.record(static_cast<std::uint64_t>(abs_err * 1e6));
      m.abs_z_milli.record(static_cast<std::uint64_t>(std::abs(z) * 1e3));
      m.nll_milli.record(static_cast<std::uint64_t>(
          std::max(-log_score, 0.0) * 1e3));
    }
  }
  rows_scored_ += 1;
  if (telemetry) {
    auto& m = ScorerMetrics::get();
    // Coverage counters batched per row (one add each, not one per
    // column) — same totals, fixed cost.
    m.coverage_total.add(n_ + 1);
    m.coverage_hits.add(covered_streams);
    m.rows_scored.add(1);
  }
  return true;
}

const StreamScore& PredictiveScorer::stream(std::size_t column) const {
  KERTBN_EXPECTS(column < scores_.size());
  return scores_[column];
}

const ColumnPrediction& PredictiveScorer::prediction(
    std::size_t column) const {
  KERTBN_EXPECTS(ready_ && column < columns_.size());
  return columns_[column].pred;
}

void PredictiveScorer::reset_scores() {
  for (StreamScore& s : scores_) s = StreamScore{};
  rows_scored_ = 0;
}

}  // namespace kertbn::quality
