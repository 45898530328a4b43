#pragma once
/// \file tabular_cpd.hpp
/// Tabular CPD (conditional probability table) for discrete nodes.

#include <vector>

#include "bn/cpd.hpp"

namespace kertbn::bn {

/// CPT over a discrete child with discrete parents.
///
/// Rows are parent configurations (mixed-radix over parent cardinalities,
/// first parent most significant); columns are child states. Each row is a
/// normalized distribution.
class TabularCpd final : public Cpd {
 public:
  /// Builds a CPT with the given child cardinality and parent cardinalities.
  /// \p table must contain rows() * child_cardinality probabilities, each
  /// row summing to 1 (within tolerance; rows are renormalized).
  TabularCpd(std::size_t child_cardinality,
             std::vector<std::size_t> parent_cardinalities,
             std::vector<double> table);

  /// Uniform CPT (every row uniform over child states).
  static TabularCpd uniform(std::size_t child_cardinality,
                            std::vector<std::size_t> parent_cardinalities);

  /// How far from 1 a row passed to from_distributions may sum.
  static constexpr double kRowSumTolerance = 1e-9;

  /// A CPT holding \p table bit for bit: every row must already be a
  /// distribution (entries >= 0, sum within kRowSumTolerance of 1) and is
  /// not renormalized. Loaders use it, so a saved table reads back exactly
  /// (renormalizing can move a row's entries by an ulp on every load).
  static TabularCpd from_distributions(
      std::size_t child_cardinality,
      std::vector<std::size_t> parent_cardinalities,
      std::vector<double> table);

  std::size_t child_cardinality() const { return child_card_; }
  const std::vector<std::size_t>& parent_cardinalities() const {
    return parent_cards_;
  }
  /// Number of parent configurations.
  std::size_t config_count() const { return configs_; }

  /// Mixed-radix index of a parent configuration.
  std::size_t config_index(std::span<const double> parents) const;

  /// P(child = state | parent configuration row).
  double probability(std::size_t config, std::size_t state) const;
  /// The whole table, config_count() x child_cardinality() row-major: the
  /// layout of a factor over (parents..., child).
  std::span<const double> table() const { return table_; }
  /// Mutable access used by learners; call normalize_rows() afterwards.
  double& probability_ref(std::size_t config, std::size_t state);
  /// Renormalizes every row to sum to 1 (rows of all zeros become uniform).
  void normalize_rows();

  // Cpd interface.
  CpdKind kind() const override { return CpdKind::kTabular; }
  std::size_t parent_count() const override { return parent_cards_.size(); }
  double log_prob(double value, std::span<const double> parents) const override;
  double sample(std::span<const double> parents, Rng& rng) const override;
  double mean(std::span<const double> parents) const override;
  std::unique_ptr<Cpd> clone() const override;
  std::string describe() const override;
  std::size_t parameter_count() const override {
    return configs_ * (child_card_ - 1);
  }

 private:
  struct Verbatim {};
  /// Shape checks only; the table is kept as given.
  TabularCpd(Verbatim, std::size_t child_cardinality,
             std::vector<std::size_t> parent_cardinalities,
             std::vector<double> table);

  std::size_t child_card_;
  std::vector<std::size_t> parent_cards_;
  std::size_t configs_;
  std::vector<double> table_;  // configs_ x child_card_, row-major
};

}  // namespace kertbn::bn
