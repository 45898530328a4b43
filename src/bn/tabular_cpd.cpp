#include "bn/tabular_cpd.hpp"

#include <cmath>
#include <sstream>

#include "common/contract.hpp"

namespace kertbn::bn {
namespace {

// Probability floor keeping log-likelihoods finite on unseen configurations.
constexpr double kProbFloor = 1e-12;

std::size_t product(const std::vector<std::size_t>& xs) {
  std::size_t p = 1;
  for (std::size_t x : xs) p *= x;
  return p;
}

}  // namespace

TabularCpd::TabularCpd(Verbatim, std::size_t child_cardinality,
                       std::vector<std::size_t> parent_cardinalities,
                       std::vector<double> table)
    : child_card_(child_cardinality),
      parent_cards_(std::move(parent_cardinalities)),
      configs_(product(parent_cards_)),
      table_(std::move(table)) {
  KERTBN_EXPECTS(child_card_ >= 2);
  for (std::size_t c : parent_cards_) KERTBN_EXPECTS(c >= 2);
  KERTBN_EXPECTS(table_.size() == configs_ * child_card_);
}

TabularCpd::TabularCpd(std::size_t child_cardinality,
                       std::vector<std::size_t> parent_cardinalities,
                       std::vector<double> table)
    : TabularCpd(Verbatim{}, child_cardinality,
                 std::move(parent_cardinalities), std::move(table)) {
  normalize_rows();
}

TabularCpd TabularCpd::from_distributions(
    std::size_t child_cardinality,
    std::vector<std::size_t> parent_cardinalities,
    std::vector<double> table) {
  TabularCpd cpd(Verbatim{}, child_cardinality,
                 std::move(parent_cardinalities), std::move(table));
  for (std::size_t cfg = 0; cfg < cpd.configs_; ++cfg) {
    double sum = 0.0;
    for (std::size_t s = 0; s < cpd.child_card_; ++s) {
      KERTBN_EXPECTS(cpd.probability(cfg, s) >= 0.0);
      sum += cpd.probability(cfg, s);
    }
    KERTBN_EXPECTS(std::abs(sum - 1.0) <= kRowSumTolerance);
  }
  return cpd;
}

TabularCpd TabularCpd::uniform(std::size_t child_cardinality,
                               std::vector<std::size_t> parent_cardinalities) {
  const std::size_t configs = product(parent_cardinalities);
  std::vector<double> table(configs * child_cardinality,
                            1.0 / static_cast<double>(child_cardinality));
  return TabularCpd(child_cardinality, std::move(parent_cardinalities),
                    std::move(table));
}

std::size_t TabularCpd::config_index(std::span<const double> parents) const {
  KERTBN_EXPECTS(parents.size() == parent_cards_.size());
  std::size_t idx = 0;
  for (std::size_t i = 0; i < parents.size(); ++i) {
    const auto state = static_cast<std::size_t>(parents[i]);
    KERTBN_EXPECTS(state < parent_cards_[i]);
    idx = idx * parent_cards_[i] + state;
  }
  return idx;
}

double TabularCpd::probability(std::size_t config, std::size_t state) const {
  KERTBN_EXPECTS(config < configs_ && state < child_card_);
  return table_[config * child_card_ + state];
}

double& TabularCpd::probability_ref(std::size_t config, std::size_t state) {
  KERTBN_EXPECTS(config < configs_ && state < child_card_);
  return table_[config * child_card_ + state];
}

void TabularCpd::normalize_rows() {
  for (std::size_t cfg = 0; cfg < configs_; ++cfg) {
    double* row = table_.data() + cfg * child_card_;
    double sum = 0.0;
    for (std::size_t s = 0; s < child_card_; ++s) {
      KERTBN_EXPECTS(row[s] >= 0.0);
      sum += row[s];
    }
    if (sum <= 0.0) {
      for (std::size_t s = 0; s < child_card_; ++s) {
        row[s] = 1.0 / static_cast<double>(child_card_);
      }
    } else {
      for (std::size_t s = 0; s < child_card_; ++s) row[s] /= sum;
    }
  }
}

double TabularCpd::log_prob(double value,
                            std::span<const double> parents) const {
  const auto state = static_cast<std::size_t>(value);
  KERTBN_EXPECTS(state < child_card_);
  const double p = probability(config_index(parents), state);
  return std::log(std::max(p, kProbFloor));
}

double TabularCpd::sample(std::span<const double> parents, Rng& rng) const {
  const std::size_t cfg = config_index(parents);
  double target = rng.uniform();
  const double* row = table_.data() + cfg * child_card_;
  for (std::size_t s = 0; s < child_card_; ++s) {
    target -= row[s];
    if (target < 0.0) return static_cast<double>(s);
  }
  return static_cast<double>(child_card_ - 1);
}

double TabularCpd::mean(std::span<const double> parents) const {
  const std::size_t cfg = config_index(parents);
  const double* row = table_.data() + cfg * child_card_;
  double m = 0.0;
  for (std::size_t s = 0; s < child_card_; ++s) {
    m += static_cast<double>(s) * row[s];
  }
  return m;
}

std::unique_ptr<Cpd> TabularCpd::clone() const {
  return std::make_unique<TabularCpd>(*this);
}

std::string TabularCpd::describe() const {
  std::ostringstream out;
  out << "Tabular(card=" << child_card_ << ", configs=" << configs_ << ")";
  return out.str();
}

}  // namespace kertbn::bn
