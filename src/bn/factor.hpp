#pragma once
/// \file factor.hpp
/// Legacy discrete factor: the reference the flat kernels
/// (factor_kernels.hpp) are held to bit for bit. Every operation allocates
/// a fresh table and walks it entry by entry in the plainest order, so the
/// tests and BM_SnapshotBuild use it as an oracle; no inference path runs
/// on it. Scope variables are global node indices; values are stored
/// row-major in scope order (first variable most significant).

#include <cstddef>
#include <span>
#include <vector>

namespace kertbn::bn {

class Factor {
 public:
  Factor() = default;

  /// \p scope: distinct variable ids; \p cards: matching cardinalities;
  /// \p values: prod(cards) entries (non-negative).
  Factor(std::vector<std::size_t> scope, std::vector<std::size_t> cards,
         std::vector<double> values);

  /// Factor of 1 over the empty scope.
  static Factor unit();

  const std::vector<std::size_t>& scope() const { return scope_; }
  const std::vector<std::size_t>& cardinalities() const { return cards_; }
  const std::vector<double>& values() const { return values_; }
  std::size_t size() const { return values_.size(); }
  bool has_variable(std::size_t var) const;

  /// Value at a full assignment to the scope (states in scope order).
  double at(std::span<const std::size_t> states) const;

  /// Pointwise product; scopes are merged (union).
  Factor product(const Factor& other) const;

  /// Sums out \p var (its states in ascending order per entry);
  /// contract-fails if absent.
  Factor marginalize(std::size_t var) const;

  /// Restricts \p var to \p state and drops it from the scope.
  Factor reduce(std::size_t var, std::size_t state) const;

  /// Sum of all entries, in storage order.
  double total() const;

 private:
  std::size_t linear_index(std::span<const std::size_t> states) const;

  std::vector<std::size_t> scope_;
  std::vector<std::size_t> cards_;
  std::vector<double> values_;
};

}  // namespace kertbn::bn
