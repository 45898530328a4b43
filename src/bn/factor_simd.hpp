#pragma once
/// \file factor_simd.hpp
/// Runtime-dispatched inner-loop primitives for the factor kernels.
///
/// Every vectorized loop in factor_kernels.cpp bottoms out in one of these
/// two primitives, resolved per call against kertbn::simd::active_tier() (a
/// relaxed atomic read — tests flip tiers mid-process). Three executions
/// exist: scalar, AVX2 (4 doubles/op) and AVX-512 F/DQ (8 doubles/op),
/// compiled with per-function target attributes in factor_simd.cpp so the
/// binary runs on any x86-64 and only dispatches into code the host
/// supports — the same structure as the SSE4.2 CRC32C dispatch in
/// src/durable/crc32c.cpp.
///
/// All primitives are gather-free by contract: an operand either streams
/// contiguously (step == 1) or broadcasts one value (step == 0) across the
/// run. The plans in factor_kernels restructure the odometer walk so the
/// innermost dimension satisfies this before a vector primitive is chosen.
///
/// Both primitives are bit-exact on EVERY tier, so every tier computes the
/// same bits as the legacy Factor loops:
///   * chain_mul   — one multiply per operand per element, in operand
///                   order; vector lanes are independent elements.
///   * reduce_cols — lane i sums column i in the same ascending order as
///                   the scalar loop; no sum is re-associated.

#include <cstddef>

namespace kertbn::bn::simd_kernels {

/// One operand of a chain primitive over an inner run: base pointer plus
/// per-element step. Vector paths require step ∈ {0 (broadcast),
/// 1 (contiguous)}.
struct ChainOp {
  const double* p = nullptr;
  std::size_t step = 0;
};

struct KernelOps {
  /// out[i] = fold_left(ops, *): ops[0][i*s0] * ops[1][i*s1] * ...
  void (*chain_mul)(double* out, const ChainOp* ops, std::size_t nops,
                    std::size_t n);
  /// out[i] = sum_{k < card} in[k*stride + i] for i < stride, k ascending
  /// per output element.
  void (*reduce_cols)(double* out, const double* in, std::size_t stride,
                      std::size_t card);
};

/// Primitive table for the currently active dispatch tier.
const KernelOps& active_ops();

}  // namespace kertbn::bn::simd_kernels
