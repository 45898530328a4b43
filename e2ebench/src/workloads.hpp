#pragma once
/// \file workloads.hpp
/// The benchmark's workloads. Each one generates its inputs from the seed
/// before any timing, drives the pipeline through its public API, checks
/// the outputs, and returns named metrics.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Parent of the run's durable directories (emptied first).
  std::string data_dir;
  /// Spans of a traced run are written here.
  std::string trace_path;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness problems other than counted failures; any entry fails
  /// the run.
  std::vector<std::string> problems;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Final-state digest: equal for every run with the same seed and length.
  std::string digest;
  std::size_t threads_started = 0;
  /// Per-window values behind the end-to-end medians, for the record.
  std::vector<std::pair<std::string, std::vector<double>>> windows;

  void problem(std::string what) { problems.push_back(std::move(what)); }
};

/// Pool workers behind the ediamond batch controller.
inline constexpr std::size_t kBatchWorkers = 2;
/// Shard workers of fleet_1k.
inline constexpr std::size_t kFleetShards = 4;

/// Most threads a workload keeps busy at once. The batch controller and
/// the fleet's tick loop hand work to a pool and wait while it runs; an
/// ediamond window serves (feeder and interactive controller) and then
/// sweeps (the batch pool), never both at once.
inline std::size_t busy_threads(const std::string& workload) {
  if (workload == "fleet_1k") return kFleetShards;
  return std::max<std::size_t>(2, kBatchWorkers);
}

/// ediamond_coarse / ediamond_wide.
RunResult run_ediamond(const RunOptions& opts);
/// fleet_1k.
RunResult run_fleet(const RunOptions& opts);

}  // namespace e2e
