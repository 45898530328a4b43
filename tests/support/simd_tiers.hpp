#pragma once
/// \file simd_tiers.hpp
/// Helpers for suites that run one test on every SIMD dispatch tier the
/// host supports, switching tiers in-process with set_active_tier.

#include <vector>

#include "common/cpu_features.hpp"

namespace kertbn::test_support {

/// Restores the dispatch tier a test changed, even on assertion exit.
class TierGuard {
 public:
  TierGuard() : saved_(simd::active_tier()) {}
  ~TierGuard() { simd::set_active_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  simd::Tier saved_;
};

/// Distinct tiers the host can actually run (set_active_tier clamps, so
/// on an AVX2-only host the avx512 request collapses into avx2). Leaves
/// the widest of them active.
inline std::vector<simd::Tier> runnable_tiers() {
  std::vector<simd::Tier> tiers;
  for (simd::Tier want :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    const simd::Tier got = simd::set_active_tier(want);
    if (tiers.empty() || tiers.back() != got) tiers.push_back(got);
  }
  return tiers;
}

}  // namespace kertbn::test_support
