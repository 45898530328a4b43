#pragma once
/// \file cpu_features.hpp
/// Runtime SIMD dispatch for the inference hot path.
///
/// The factor kernels ship three executions of every inner loop — scalar,
/// AVX2, and AVX-512 — selected once at startup by CPUID probe (the
/// same pattern as the SSE4.2 CRC32C dispatch in src/durable/crc32c.cpp),
/// so one binary runs everywhere and uses the widest units the host has.
///
/// The `KERTBN_SIMD` environment variable overrides the probe for testing
/// (`scalar` | `avx2` | `avx512`); a request the host cannot satisfy is
/// clamped down to the widest supported tier with a one-time warning, so a
/// CI matrix over KERTBN_SIMD is safe on any runner.
///
/// Equivalence contract (see DESIGN "Query serving"): every tier performs
/// the legacy Factor operations' floating-point operations in their order
/// — products are single multiplies per element, and vector sums run
/// across output elements, each summing its terms in ascending order — so
/// discrete answers are bit-identical on the scalar, AVX2 and AVX-512
/// tiers.

namespace kertbn::simd {

/// Dispatch tiers, widest last. Numeric values are stable: they are
/// exported as the `kert.query.simd_tier` gauge.
enum class Tier {
  kScalar = 0,
  kAvx2 = 1,    ///< AVX2 + FMA, 4 doubles per op.
  kAvx512 = 2,  ///< AVX-512 F/DQ, 8 doubles per op.
};

const char* to_string(Tier tier);

/// Widest tier the host CPU supports (probed once).
Tier highest_supported();

/// The tier kernels dispatch on: min(highest_supported, KERTBN_SIMD
/// override). Resolved once on first call, then a relaxed atomic read.
Tier active_tier();

/// Overrides the active tier (clamped to highest_supported(); returns the
/// tier actually installed). Tests use this to run every tier in one
/// process; plans are tier-independent, so switching mid-run is safe.
Tier set_active_tier(Tier tier);

}  // namespace kertbn::simd
