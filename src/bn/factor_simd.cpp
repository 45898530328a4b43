#include "bn/factor_simd.hpp"

#include "common/cpu_features.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KERTBN_X86_SIMD 1
#include <immintrin.h>
#endif

namespace kertbn::bn::simd_kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier — the reference semantics. Each loop performs the same
// floating-point operations in the same order as the legacy Factor code,
// and the vector tiers below perform them in that order too.
// ---------------------------------------------------------------------------

double chain_at(const ChainOp* ops, std::size_t nops, std::size_t i) {
  double acc = ops[0].p[i * ops[0].step];
  for (std::size_t k = 1; k < nops; ++k) acc *= ops[k].p[i * ops[k].step];
  return acc;
}

/// Per-operand passes instead of a per-element operand loop: each pass is
/// a tight stream/broadcast loop the compiler vectorizes, and every out[i]
/// still accumulates its product in the same left-to-right operand order,
/// so the result is bit-identical to the per-element fold.
void chain_mul_scalar(double* out, const ChainOp* ops, std::size_t nops,
                      std::size_t n) {
  if (ops[0].step) {
    for (std::size_t i = 0; i < n; ++i) out[i] = ops[0].p[i];
  } else {
    const double c = *ops[0].p;
    for (std::size_t i = 0; i < n; ++i) out[i] = c;
  }
  for (std::size_t k = 1; k < nops; ++k) {
    if (ops[k].step) {
      const double* p = ops[k].p;
      for (std::size_t i = 0; i < n; ++i) out[i] *= p[i];
    } else {
      const double c = *ops[k].p;
      for (std::size_t i = 0; i < n; ++i) out[i] *= c;
    }
  }
}

void reduce_cols_scalar(double* out, const double* in, std::size_t stride,
                        std::size_t card) {
  for (std::size_t i = 0; i < stride; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < card; ++k) acc += in[k * stride + i];
    out[i] = acc;
  }
}

constexpr KernelOps kScalarOps = {chain_mul_scalar, reduce_cols_scalar};

#if KERTBN_X86_SIMD

// ---------------------------------------------------------------------------
// AVX2 tier — 4 doubles per op. Broadcast operands use vbroadcastsd (a
// plain load uop), so re-broadcasting inside the loop costs the same as a
// contiguous load and no per-operand state needs hoisting.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d
chain_at4(const ChainOp* ops, std::size_t nops, std::size_t i) {
  __m256d acc = ops[0].step ? _mm256_loadu_pd(ops[0].p + i)
                            : _mm256_set1_pd(*ops[0].p);
  for (std::size_t k = 1; k < nops; ++k) {
    const __m256d v = ops[k].step ? _mm256_loadu_pd(ops[k].p + i)
                                  : _mm256_set1_pd(*ops[k].p);
    acc = _mm256_mul_pd(acc, v);
  }
  return acc;
}

__attribute__((target("avx2"))) void chain_mul_avx2(double* out,
                                                    const ChainOp* ops,
                                                    std::size_t nops,
                                                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm256_storeu_pd(out + i, chain_at4(ops, nops, i));
  for (; i < n; ++i) out[i] = chain_at(ops, nops, i);
}

__attribute__((target("avx2"))) void reduce_cols_avx2(double* out,
                                                      const double* in,
                                                      std::size_t stride,
                                                      std::size_t card) {
  std::size_t i = 0;
  for (; i + 4 <= stride; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < card; ++k) {
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(in + k * stride + i));
    }
    _mm256_storeu_pd(out + i, acc);
  }
  for (; i < stride; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < card; ++k) acc += in[k * stride + i];
    out[i] = acc;
  }
}

constexpr KernelOps kAvx2Ops = {chain_mul_avx2, reduce_cols_avx2};

// ---------------------------------------------------------------------------
// AVX-512 F/DQ tier — 8 doubles per op.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f,avx512dq"))) inline __m512d
chain_at8(const ChainOp* ops, std::size_t nops, std::size_t i) {
  __m512d acc = ops[0].step ? _mm512_loadu_pd(ops[0].p + i)
                            : _mm512_set1_pd(*ops[0].p);
  for (std::size_t k = 1; k < nops; ++k) {
    const __m512d v = ops[k].step ? _mm512_loadu_pd(ops[k].p + i)
                                  : _mm512_set1_pd(*ops[k].p);
    acc = _mm512_mul_pd(acc, v);
  }
  return acc;
}

__attribute__((target("avx512f,avx512dq"))) void chain_mul_avx512(
    double* out, const ChainOp* ops, std::size_t nops, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm512_storeu_pd(out + i, chain_at8(ops, nops, i));
  for (; i < n; ++i) out[i] = chain_at(ops, nops, i);
}

__attribute__((target("avx512f,avx512dq"))) void reduce_cols_avx512(
    double* out, const double* in, std::size_t stride, std::size_t card) {
  std::size_t i = 0;
  for (; i + 8 <= stride; i += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t k = 0; k < card; ++k) {
      acc = _mm512_add_pd(acc, _mm512_loadu_pd(in + k * stride + i));
    }
    _mm512_storeu_pd(out + i, acc);
  }
  for (; i < stride; ++i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < card; ++k) acc += in[k * stride + i];
    out[i] = acc;
  }
}

constexpr KernelOps kAvx512Ops = {chain_mul_avx512, reduce_cols_avx512};

#endif  // KERTBN_X86_SIMD

}  // namespace

const KernelOps& active_ops() {
#if KERTBN_X86_SIMD
  switch (kertbn::simd::active_tier()) {
    case kertbn::simd::Tier::kAvx512:
      return kAvx512Ops;
    case kertbn::simd::Tier::kAvx2:
      return kAvx2Ops;
    case kertbn::simd::Tier::kScalar:
      break;
  }
#endif
  return kScalarOps;
}

}  // namespace kertbn::bn::simd_kernels
