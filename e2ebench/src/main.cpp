/// \file main.cpp
/// End-to-end kertbn pipeline benchmark.
///
///   e2e_pipeline --workload <ediamond_coarse|ediamond_wide|fleet_1k>
///                --seed <n> --seconds <s> --trace <0|1>
///                --data-dir <dir> --state-dir <dir>
///
/// Prints a metric table and a provenance record, then, as the last line
/// of standard output, one JSON object {correct, attempted, failed,
/// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
/// of a traced run with --trace 1. Exits 1 when a correctness check
/// fails and 2 on a usage or host error (without a result line).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using e2e::json_quote;

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_pipeline: %s\nusage: e2e_pipeline --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --data-dir <dir> "
               "--state-dir <dir>\n",
               why);
  return 2;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Runs with the same seed, length and mode must end in the same state:
/// the first run records its digest, later ones compare against it.
void check_digest(const std::string& state_dir, const std::string& key,
                  e2e::RunResult& r) {
  fs::create_directories(state_dir);
  const fs::path path = fs::path(state_dir) / ("digest-" + key);
  std::ifstream in(path);
  std::string want;
  if (in >> want) {
    if (want != r.digest) {
      r.problem("final-state digest " + r.digest +
                " differs from an earlier run with the same seed (" + want +
                ")");
    }
    return;
  }
  std::ofstream(path) << r.digest << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions opts;
  std::string state_dir;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--data-dir") {
      opts.data_dir = val;
    } else if (key == "--state-dir") {
      state_dir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in pairs");
  const bool ediamond = opts.workload == "ediamond_coarse" ||
                        opts.workload == "ediamond_wide";
  if (!ediamond && opts.workload != "fleet_1k") {
    return usage("unknown workload");
  }
  if (!have_seed || !(opts.seconds > 0.0) || opts.seconds > 120.0) {
    return usage("--seed and --seconds in (0, 120] are required");
  }
  if (opts.data_dir.empty() || state_dir.empty()) {
    return usage("--data-dir and --state-dir are required");
  }

  fs::remove_all(opts.data_dir);
  fs::create_directories(opts.data_dir);
  const e2e::HostRecord host = e2e::probe_host(opts.data_dir);
  // Numbers from an unoptimized build measure the wrong code.
  if (!e2e::release_build(host.build_type)) {
    std::fprintf(stderr, "e2e_pipeline: build type '%s' is not Release\n",
                 host.build_type.c_str());
    return 2;
  }
  const std::size_t busy = e2e::busy_threads(opts.workload);
  if (busy > host.nproc) {
    std::fprintf(stderr,
                 "e2e_pipeline: %s keeps %zu threads busy but nproc is %u\n",
                 opts.workload.c_str(), busy, host.nproc);
    return 2;
  }
  const std::string key = opts.workload + "-seed" + std::to_string(opts.seed) +
                          "-sec" + num(opts.seconds) + "-trace" +
                          (opts.trace ? "1" : "0");
  if (opts.trace) {
    // One file per workload, replaced by each traced run.
    opts.trace_path =
        (fs::path(state_dir) / ("spans-" + opts.workload + ".bin")).string();
    fs::create_directories(state_dir);
  }

  const e2e::CpuTimes cpu0 = e2e::cpu_times();
  e2e::RunResult r =
      ediamond ? e2e::run_ediamond(opts) : e2e::run_fleet(opts);
  const e2e::CpuTimes cpu1 = e2e::cpu_times();
  // Host contention the guest cannot see otherwise; 0 when unknown.
  const double steal =
      cpu1.total > cpu0.total
          ? double(cpu1.steal - cpu0.steal) / double(cpu1.total - cpu0.total)
          : 0.0;
  check_digest(state_dir, key, r);
  for (e2e::Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) {
      r.problem(m.name + " has no value (no samples)");
      m.value = 0.0;
    }
  }
  fs::remove_all(opts.data_dir);

  const bool correct = r.problems.empty() && r.failed == 0;
  std::printf("%-44s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const e2e::Metric& m : r.metrics) {
    std::printf("%-44s %16.6g %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& p : r.problems) {
    std::printf("PROBLEM: %s\n", p.c_str());
  }

  std::ostringstream prov;
  prov << "{\"provenance\": {\"workload\": " << json_quote(opts.workload)
       << ", \"seed\": " << opts.seed << ", \"seconds\": " << num(opts.seconds)
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"nproc\": " << host.nproc
       << ", \"cpu\": " << json_quote(host.cpu_model)
       << ", \"simd_tier\": " << json_quote(host.simd_tier)
       << ", \"compiler\": " << json_quote(host.compiler)
       << ", \"build_type\": " << json_quote(host.build_type)
       << ", \"data_fs\": " << json_quote(host.data_fs)
       << ", \"steal_share\": " << num(steal)
       << ", \"threads_started\": " << r.threads_started
       << ", \"busy_threads\": " << busy
       << ", \"failed_share\": "
       << num(e2e::failed_share(r.failed, r.attempted))
       << ", \"digest\": " << json_quote(r.digest) << ", \"samples\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    prov << (i ? ", " : "") << json_quote(r.metrics[i].name) << ": "
         << r.metrics[i].samples;
  }
  prov << "}, \"windows\": {";
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    prov << (i ? ", " : "") << json_quote(r.windows[i].first) << ": [";
    for (std::size_t k = 0; k < r.windows[i].second.size(); ++k) {
      prov << (k ? ", " : "") << num(r.windows[i].second[k]);
    }
    prov << "]";
  }
  prov << "}, \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    prov << (i ? ", " : "") << json_quote(r.problems[i]);
  }
  prov << "]}}";
  std::printf("%s\n", prov.str().c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const e2e::Metric& m = r.metrics[i];
    out << (i ? ", " : "") << json_quote(m.name) << ": {\"value\": "
        << num(m.value) << ", \"unit\": " << json_quote(m.unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
