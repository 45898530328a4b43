#!/usr/bin/env sh
# Perf smoke for the hot paths. Each guard is one row of the GUARDS table
# below: bench binary, benchmark filter, JSON key, budget and direction.
#   1. query serving — abl_query_throughput's RecalibrationSpeedup
#      per-query times may be at most 2x the committed baseline (generous,
#      so shared/noisy CI hosts don't fail builds on jitter while a genuine
#      hot-path regression still trips it);
#   2. write-ahead journaling — abl_durable_overhead's per-segment journal
#      overhead over the monitored reconstruction loop stays <= 5%
#      (paired-sample median, stable even on busy hosts);
#   3. model-quality ingest tap — BM_QualityIngestOverhead: the scorer +
#      drift detectors riding the management server's ingest path with the
#      null sink stay under the 3% obs-overhead budget (paired-batch
#      median);
#   4. overload control — BM_GovernorOverhead: the pressure governor's
#      hooks (signal sampling, ladder update, admission token probes) on
#      the monitored reconstruction loop with every budget open stay under
#      2% (paired-cycle median);
#   5. fleet serving — BM_FleetSweep at 64/256/1024 tenants: the
#      per-tenant overhead of the fleet machinery (scheduler, bulkhead
#      governors, health ladder) over the identical tenant driven solo
#      stays <= 2x (soft: single-iteration sweeps jitter on shared hosts),
#      and p99 model staleness stays <= 3 x alpha_model ticks at every
#      size, 1024 tenants included;
#   6. snapshot publication — BM_SnapshotBuild at 3 and 4 bins:
#      make_model_snapshot on a rebuilt eDiaMoND model takes at most 0.8x
#      the legacy Factor fold of the same families, timed in the same
#      process (host-relative: a snapshot build that still ran that fold
#      reads above 1).
#
# Every row runs and prints a verdict per benchmark entry; the script
# exits nonzero when any row failed.
#
# Usage: bench/perf_smoke.sh [build-dir] [baseline-json]

set -eu

build_dir="${1:-build}"
baseline="${2:-bench/baselines/BENCH_abl_query_throughput.json}"

# The committed baselines are recorded from a Release build; comparing a
# Debug run against them produces spurious FAILs (or, worse, re-recording
# from Debug produces baselines every Release run trivially beats). The
# project's own CMAKE_BUILD_TYPE is authoritative — google-benchmark's
# library_build_type JSON field reflects how *libbenchmark* was built,
# not this tree.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "$build_dir/CMakeCache.txt" 2>/dev/null || true)
case "$build_type" in
  Release|RelWithDebInfo|MinSizeRel) ;;
  *)
    if [ "${KERTBN_BENCH_ALLOW_NONRELEASE:-0}" = "1" ]; then
      echo "warning: build type '${build_type:-unknown}' is not Release —" \
           "guard verdicts are not meaningful" >&2
    else
      echo "error: build type '${build_type:-unknown}' is not Release" >&2
      echo "  Configure with cmake --preset release (or set" >&2
      echo "  KERTBN_BENCH_ALLOW_NONRELEASE=1 to run anyway)." >&2
      exit 1
    fi
    ;;
esac

exec python3 - "$build_dir" "$baseline" <<'EOF'
import json
import os
import re
import subprocess
import sys

build_dir, baseline_path = sys.argv[1], sys.argv[2]

# Direction "max": the value may not exceed the budget. "max_x_baseline":
# the value may not exceed budget x the committed baseline's value for the
# same benchmark entry.
GUARDS = [
    # bench binary, benchmark filter, JSON key, budget, direction
    ("abl_query_throughput", "RecalibrationSpeedup",
     "incremental_us_per_query", 2.0, "max_x_baseline"),
    ("abl_query_throughput", "RecalibrationSpeedup",
     "full_us_per_query", 2.0, "max_x_baseline"),
    ("abl_durable_overhead", "", "per_segment_overhead_pct", 5.0, "max"),
    ("abl_obs_overhead", "QualityIngestOverhead",
     "quality_ingest_overhead_pct", 3.0, "max"),
    ("abl_overload", "GovernorOverhead", "governor_overhead_pct", 2.0, "max"),
    ("abl_fleet", "FleetSweep", "per_tenant_overhead_ratio", 2.0, "max"),
    # 3 x alpha_model (= 6 in the sweep config).
    ("abl_fleet", "FleetSweep", "staleness_p99_ticks", 18.0, "max"),
    ("abl_query_throughput", "SnapshotBuild", "snapshot_to_legacy_fold", 0.8,
     "max"),
]


def entries(path, flt, key):
    """Returns {benchmark name: value of key} over the entries matching
    flt, and the highest SIMD tier they report (0 when none do)."""
    with open(path) as f:
        doc = json.load(f)
    values, tier = {}, 0
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if not re.search(flt, name):
            continue
        tier = max(tier, int(bench.get("simd_tier", 0)))
        if key in bench:
            values[name] = float(bench[key])
    return values, tier


runs = {}  # (bench, filter) -> fresh JSON path, or None if the run failed


def run(bench, flt):
    if (bench, flt) not in runs:
        binary = os.path.join(build_dir, "bench", bench)
        # One file per (bench, filter): two filters of one bench must not
        # overwrite each other's results.
        out = os.path.join(build_dir, "PERF_SMOKE_%s%s.json"
                           % (bench, "_" + flt if flt else ""))
        cmd = [binary, "--benchmark_out=" + out,
               "--benchmark_out_format=json"]
        if flt:
            cmd.append("--benchmark_filter=" + flt)
        try:
            code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        except OSError as e:
            print("error: cannot run %s (%s) — build the project first"
                  % (binary, e.strerror))
            code = 1
        runs[(bench, flt)] = out if code == 0 else None
    return runs[(bench, flt)]


def check(bench, flt, key, budget, direction):
    """Prints one verdict per benchmark entry; returns False on any FAIL."""
    path = run(bench, flt)
    fresh, fresh_tier = entries(path, flt, key) if path else ({}, 0)
    if not fresh:
        print("FAIL  %s %s: no result in the fresh run" % (bench, key))
        return False
    if direction == "max":
        ok = True
        for name, v in fresh.items():
            verdict = "ok  " if v <= budget else "FAIL"
            print("%s  %s %s: %.3f (limit %.3f)" % (verdict, name, key, v,
                                                    budget))
            ok = ok and v <= budget
        return ok
    if not os.path.isfile(baseline_path):
        print("FAIL  %s %s: baseline %s not found" % (bench, key,
                                                      baseline_path))
        return False
    base, base_tier = entries(baseline_path, flt, key)
    ok = True
    for name, v in fresh.items():
        base_v = base.get(name, 0.0)
        if base_v <= 0.0:
            print("skip  %s %s: no baseline" % (name, key))
            continue
        ratio = v / base_v
        verdict = "ok  " if ratio <= budget else "FAIL"
        print("%s  %s %s: baseline %.3fus fresh %.3fus (%.2fx, limit %.1fx)"
              % (verdict, name, key, base_v, v, ratio, budget))
        ok = ok and ratio <= budget
        # Soft SIMD guard: against the scalar-recorded baseline, a SIMD tier
        # is expected to be at least as fast. A WARN (not a failure —
        # shared hosts are noisy) flags a vectorized build that lost its
        # speedup.
        if fresh_tier > base_tier and ratio > 1.0:
            print("WARN  %s %s: simd tier %d is slower than the tier-%d "
                  "baseline (%.2fx) — vectorized kernels may have regressed"
                  % (name, key, fresh_tier, base_tier, ratio))
    return ok


failed = [guard for guard in GUARDS if not check(*guard)]
for bench, _, key, _, _ in failed:
    print("perf smoke: guard %s %s failed" % (bench, key))
sys.exit(1 if failed else 0)
EOF
