#pragma once
/// \file host.hpp
/// Host and provenance record written with every result, the process's
/// peak resident set, and the digest helpers of the determinism gate.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct HostRecord {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd_tier;
  std::string compiler;
  std::string build_type;
  std::string data_fs;  ///< Filesystem type of the durable directory.
};

/// Probes the host; \p data_dir is the durable directory's parent.
HostRecord probe_host(const std::string& data_dir);

/// True for the optimized build types timings may come from.
bool release_build(const std::string& build_type);

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib();

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it and the
/// part the hypervisor gave to other guests (steal).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes cpu_times();

/// FNV-1a, 64-bit, continued from \p h.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::uint64_t fnv1a_doubles(const std::vector<double>& values,
                            std::uint64_t h);
std::string hex64(std::uint64_t v);

/// JSON string literal for \p s (quotes included).
std::string json_quote(std::string_view s);

}  // namespace e2e
