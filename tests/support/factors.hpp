#pragma once
/// \file factors.hpp
/// Legacy Factor as the oracle of the flat-kernel suites: conversions
/// between the two factor types, seeded random factors and an exact
/// comparison of a kernel result with its legacy twin.

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "bn/factor.hpp"
#include "bn/factor_kernels.hpp"
#include "common/rng.hpp"

namespace kertbn::test_support {

inline bn::FlatFactor to_flat(const bn::Factor& f) {
  return bn::FlatFactor{f.scope(), f.cardinalities(), f.values()};
}

inline bn::Factor to_factor(const bn::FlatFactor& f) {
  return bn::Factor(f.scope, f.cards, f.values);
}

/// Random factor over \p scope with values drawn uniformly in [0.05, 1).
inline bn::Factor random_factor(const std::vector<std::size_t>& scope,
                                const std::vector<std::size_t>& cards,
                                kertbn::Rng& rng) {
  std::size_t size = 1;
  for (std::size_t c : cards) size *= c;
  std::vector<double> values;
  values.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    values.push_back(rng.uniform(0.05, 1.0));
  }
  return bn::Factor(scope, cards, values);
}

/// \p flat has \p legacy's scope, cardinalities and every value.
inline void expect_bitwise_equal(const bn::Factor& legacy,
                                 const bn::FlatFactor& flat,
                                 const char* what = "") {
  ASSERT_EQ(legacy.scope(), flat.scope) << what;
  ASSERT_EQ(legacy.cardinalities(), flat.cards) << what;
  ASSERT_EQ(legacy.values().size(), flat.values.size()) << what;
  for (std::size_t i = 0; i < flat.values.size(); ++i) {
    ASSERT_EQ(legacy.values()[i], flat.values[i]) << what << " entry " << i;
  }
}

}  // namespace kertbn::test_support
