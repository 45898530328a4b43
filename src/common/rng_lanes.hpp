#pragma once
/// \file rng_lanes.hpp
/// Eight positions of one xoshiro256** stream, drawn in lockstep.
///
/// A serial loop that draws a fixed number of uniforms per item can be cut
/// into eight contiguous blocks of items: lane j starts `j * stride` draws
/// into the stream (Rng::jump), so every lane draws exactly the values the
/// serial loop drew at those positions. fill_boxes advances the eight
/// states with a kernel for the active dispatch tier
/// (kertbn::simd::active_tier()):
///   * AVX-512 F/DQ — one register per state word, vprolq rotates and an
///     exact vcvtuqq2pd conversion;
///   * AVX2 — two 4-lane halves, with the 53-bit draw converted to double
///     in two exact parts (no 64-bit integer conversion exists in AVX2);
///   * scalar — a plain loop over the lanes through Rng's own step.
/// Every tier computes each output with the arithmetic of
/// `lo + w * rng.uniform()`, one rounding per operation, so the outputs
/// are bit-identical across tiers and to the serial stream. The kernels'
/// translation unit is compiled with -ffp-contract=off: inside an
/// AVX-512 or AVX2 target GCC would otherwise fuse `lo + w * u` into one
/// FMA, which rounds once.

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"

namespace kertbn {

class RngLanes {
 public:
  static constexpr std::size_t kLanes = 8;

  /// Lane j continues \p start's stream `j * stride` draws ahead.
  RngLanes(const Rng& start, std::uint64_t stride);

  /// Draws `samples * dims` uniforms in every lane — sample by sample,
  /// and within a sample dimension by dimension, the order of that many
  /// successive uniform() calls — and maps each into its lane's interval:
  ///
  ///   rows[d * row_stride + k * kLanes + j] =
  ///       lo[d * kLanes + j] + w[d * kLanes + j] * u
  ///
  /// for sample k, dimension d and lane j. Each of the `dims` rows holds
  /// the lanes interleaved, kLanes * samples values (row_stride >= that).
  void fill_boxes(double* rows, std::size_t row_stride, std::size_t dims,
                  std::size_t samples, const double* lo, const double* w);

 private:
  void fill_boxes_scalar(double* rows, std::size_t row_stride,
                         std::size_t dims, std::size_t samples,
                         const double* lo, const double* w);

  /// State word `word` of lane j is state_[word * kLanes + j], so each
  /// word of all lanes loads as one vector.
  std::array<std::uint64_t, 4 * kLanes> state_{};
};

}  // namespace kertbn
