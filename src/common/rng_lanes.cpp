// Compiled with -ffp-contract=off (see rng_lanes.hpp and CMakeLists.txt):
// every `lo + w * u` here must round its product and its sum separately.
#include "common/rng_lanes.hpp"

#include <cstring>

#include "common/cpu_features.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KERTBN_X86_SIMD 1
#endif

namespace kertbn {
namespace {

constexpr std::size_t kLanes = RngLanes::kLanes;

#if KERTBN_X86_SIMD

// The SIMD kernels use GCC vector extensions: each kernel's target
// attribute picks the instructions, e.g. vprolq for the rotates and
// vcvtuqq2pd for the conversion under AVX-512 F/DQ.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using F64x8 = double __attribute__((vector_size(64)));
using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using F64x4 = double __attribute__((vector_size(32)));

/// One xoshiro256** step of a vector of lanes (Rng::step lane by lane);
/// \p draw receives each lane's top 53 output bits, the bits
/// Rng::to_unit keeps. The output's multiplies by 5 and 9 are shifts and
/// adds, exact mod 2^64, since AVX2 has no 64-bit multiply.
template <typename U>
__attribute__((always_inline)) inline void step_lanes(U& s0, U& s1, U& s2,
                                                      U& s3, U& draw) {
  const U x5 = s1 + (s1 << 2);
  const U r7 = (x5 << 7) | (x5 >> 57);
  const U result = r7 + (r7 << 3);
  const U t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
  draw = result >> 11;
}

__attribute__((target("avx512f,avx512dq"))) void fill_boxes_avx512(
    std::uint64_t* state, double* rows, std::size_t row_stride,
    std::size_t dims, std::size_t samples, const double* lo,
    const double* w) {
  U64x8 s[4];
  std::memcpy(s, state, sizeof s);
  for (std::size_t k = 0; k < samples; ++k) {
    double* out = rows + k * kLanes;
    for (std::size_t d = 0; d < dims; ++d) {
      U64x8 v;
      step_lanes(s[0], s[1], s[2], s[3], v);
      const F64x8 u = __builtin_convertvector(v, F64x8) * 0x1.0p-53;
      F64x8 box_lo;
      F64x8 box_w;
      std::memcpy(&box_lo, lo + d * kLanes, sizeof box_lo);
      std::memcpy(&box_w, w + d * kLanes, sizeof box_w);
      const F64x8 x = box_lo + box_w * u;
      std::memcpy(out + d * row_stride, &x, sizeof x);
    }
  }
  std::memcpy(state, s, sizeof s);
}

/// Lanes 0-3 and 4-7 run as two independent 4-lane halves. AVX2 converts
/// no 64-bit integers, so a draw's 53 bits v = hi * 2^32 + lo (hi < 2^21)
/// convert in two exact parts: placed in the mantissas of 2^84 and 2^52
/// they read 2^84 + hi * 2^32 and 2^52 + lo, and
/// ((2^84 + hi * 2^32) - (2^84 + 2^52)) + (2^52 + lo) = v rounds at
/// neither step, since both results are integers of magnitude below 2^53.
__attribute__((target("avx2"))) void fill_boxes_avx2(
    std::uint64_t* state, double* rows, std::size_t row_stride,
    std::size_t dims, std::size_t samples, const double* lo,
    const double* w) {
  // s[2 * word] holds lanes 0-3 of a state word, s[2 * word + 1] 4-7.
  U64x4 s[8];
  std::memcpy(s, state, sizeof s);
  for (std::size_t k = 0; k < samples; ++k) {
    double* out = rows + k * kLanes;
    for (std::size_t d = 0; d < dims; ++d) {
      U64x4 v[2];
      step_lanes(s[0], s[2], s[4], s[6], v[0]);
      step_lanes(s[1], s[3], s[5], s[7], v[1]);
      for (std::size_t half = 0; half < 2; ++half) {
        const U64x4 lo_bits = (v[half] & 0xFFFFFFFFu) | 0x4330000000000000u;
        const U64x4 hi_bits = (v[half] >> 32) | 0x4530000000000000u;
        const F64x4 value =
            (__builtin_bit_cast(F64x4, hi_bits) - (0x1.0p84 + 0x1.0p52)) +
            __builtin_bit_cast(F64x4, lo_bits);
        const F64x4 u = value * 0x1.0p-53;
        const std::size_t at = d * kLanes + 4 * half;
        F64x4 box_lo;
        F64x4 box_w;
        std::memcpy(&box_lo, lo + at, sizeof box_lo);
        std::memcpy(&box_w, w + at, sizeof box_w);
        const F64x4 x = box_lo + box_w * u;
        std::memcpy(out + d * row_stride + 4 * half, &x, sizeof x);
      }
    }
  }
  std::memcpy(state, s, sizeof s);
}

#endif  // KERTBN_X86_SIMD

}  // namespace

RngLanes::RngLanes(const Rng& start, std::uint64_t stride) {
  Rng lane = start;
  for (std::size_t j = 0; j < kLanes; ++j) {
    if (j > 0) lane.jump(stride);
    for (std::size_t word = 0; word < 4; ++word) {
      state_[word * kLanes + j] = lane.state_[word];
    }
  }
}

void RngLanes::fill_boxes(double* rows, std::size_t row_stride,
                          std::size_t dims, std::size_t samples,
                          const double* lo, const double* w) {
#if KERTBN_X86_SIMD
  switch (simd::active_tier()) {
    case simd::Tier::kAvx512:
      fill_boxes_avx512(state_.data(), rows, row_stride, dims, samples, lo, w);
      return;
    case simd::Tier::kAvx2:
      fill_boxes_avx2(state_.data(), rows, row_stride, dims, samples, lo, w);
      return;
    case simd::Tier::kScalar:
      break;
  }
#endif
  fill_boxes_scalar(rows, row_stride, dims, samples, lo, w);
}

void RngLanes::fill_boxes_scalar(double* rows, std::size_t row_stride,
                                 std::size_t dims, std::size_t samples,
                                 const double* lo, const double* w) {
  std::array<std::array<std::uint64_t, 4>, kLanes> lanes;
  for (std::size_t j = 0; j < kLanes; ++j) {
    for (std::size_t word = 0; word < 4; ++word) {
      lanes[j][word] = state_[word * kLanes + j];
    }
  }
  for (std::size_t k = 0; k < samples; ++k) {
    double* out = rows + k * kLanes;
    for (std::size_t d = 0; d < dims; ++d) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double u = Rng::to_unit(Rng::step(lanes[j]));
        out[d * row_stride + j] = lo[d * kLanes + j] + w[d * kLanes + j] * u;
      }
    }
  }
  for (std::size_t j = 0; j < kLanes; ++j) {
    for (std::size_t word = 0; word < 4; ++word) {
      state_[word * kLanes + j] = lanes[j][word];
    }
  }
}

}  // namespace kertbn
