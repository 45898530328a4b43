#include "bn/factor.hpp"

#include <algorithm>

#include "common/contract.hpp"

namespace kertbn::bn {
namespace {

std::size_t product_of(const std::vector<std::size_t>& xs) {
  std::size_t p = 1;
  for (std::size_t x : xs) p *= x;
  return p;
}

}  // namespace

Factor::Factor(std::vector<std::size_t> scope, std::vector<std::size_t> cards,
               std::vector<double> values)
    : scope_(std::move(scope)),
      cards_(std::move(cards)),
      values_(std::move(values)) {
  KERTBN_EXPECTS(scope_.size() == cards_.size());
  KERTBN_EXPECTS(values_.size() == product_of(cards_));
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    KERTBN_EXPECTS(cards_[i] >= 1);
    for (std::size_t j = i + 1; j < scope_.size(); ++j) {
      KERTBN_EXPECTS(scope_[i] != scope_[j]);
    }
  }
}

Factor Factor::unit() { return Factor({}, {}, {1.0}); }

bool Factor::has_variable(std::size_t var) const {
  return std::find(scope_.begin(), scope_.end(), var) != scope_.end();
}

std::size_t Factor::linear_index(std::span<const std::size_t> states) const {
  KERTBN_EXPECTS(states.size() == scope_.size());
  std::size_t idx = 0;
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    KERTBN_EXPECTS(states[i] < cards_[i]);
    idx = idx * cards_[i] + states[i];
  }
  return idx;
}

double Factor::at(std::span<const std::size_t> states) const {
  return values_[linear_index(states)];
}

Factor Factor::product(const Factor& other) const {
  // Merged scope: this factor's variables, then other's new ones.
  std::vector<std::size_t> scope = scope_;
  std::vector<std::size_t> cards = cards_;
  for (std::size_t i = 0; i < other.scope_.size(); ++i) {
    if (!has_variable(other.scope_[i])) {
      scope.push_back(other.scope_[i]);
      cards.push_back(other.cards_[i]);
    }
  }
  const std::size_t out_size = product_of(cards);

  // Position of each merged-scope variable inside each operand (or npos).
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  auto position_map = [&](const Factor& f) {
    std::vector<std::size_t> pos(scope.size(), npos);
    for (std::size_t i = 0; i < scope.size(); ++i) {
      auto it = std::find(f.scope_.begin(), f.scope_.end(), scope[i]);
      if (it != f.scope_.end()) {
        pos[i] = static_cast<std::size_t>(it - f.scope_.begin());
      }
    }
    return pos;
  };
  const auto pos_a = position_map(*this);
  const auto pos_b = position_map(other);

  std::vector<double> values(out_size);
  std::vector<std::size_t> states(scope.size(), 0);
  std::vector<std::size_t> sa(scope_.size());
  std::vector<std::size_t> sb(other.scope_.size());
  for (std::size_t idx = 0; idx < out_size; ++idx) {
    for (std::size_t i = 0; i < scope.size(); ++i) {
      if (pos_a[i] != npos) sa[pos_a[i]] = states[i];
      if (pos_b[i] != npos) sb[pos_b[i]] = states[i];
    }
    values[idx] = at(sa) * other.at(sb);
    // Advance mixed-radix counter (last variable fastest, matching
    // linear_index()).
    for (std::size_t i = scope.size(); i-- > 0;) {
      if (++states[i] < cards[i]) break;
      states[i] = 0;
    }
  }
  return Factor(std::move(scope), std::move(cards), std::move(values));
}

Factor Factor::marginalize(std::size_t var) const {
  auto it = std::find(scope_.begin(), scope_.end(), var);
  KERTBN_EXPECTS(it != scope_.end());
  const auto drop = static_cast<std::size_t>(it - scope_.begin());

  std::vector<std::size_t> scope;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    if (i == drop) continue;
    scope.push_back(scope_[i]);
    cards.push_back(cards_[i]);
  }
  std::vector<double> values(product_of(cards), 0.0);

  // Strides in the source layout.
  std::size_t stride = 1;
  for (std::size_t i = scope_.size(); i-- > drop + 1;) stride *= cards_[i];
  const std::size_t var_card = cards_[drop];
  const std::size_t block = stride * var_card;

  std::size_t out = 0;
  for (std::size_t base = 0; base < values_.size(); base += block) {
    for (std::size_t inner = 0; inner < stride; ++inner, ++out) {
      double s = 0.0;
      for (std::size_t k = 0; k < var_card; ++k) {
        s += values_[base + k * stride + inner];
      }
      values[out] = s;
    }
  }
  return Factor(std::move(scope), std::move(cards), std::move(values));
}

Factor Factor::reduce(std::size_t var, std::size_t state) const {
  auto it = std::find(scope_.begin(), scope_.end(), var);
  KERTBN_EXPECTS(it != scope_.end());
  const auto drop = static_cast<std::size_t>(it - scope_.begin());
  KERTBN_EXPECTS(state < cards_[drop]);

  std::vector<std::size_t> scope;
  std::vector<std::size_t> cards;
  for (std::size_t i = 0; i < scope_.size(); ++i) {
    if (i == drop) continue;
    scope.push_back(scope_[i]);
    cards.push_back(cards_[i]);
  }
  std::vector<double> values;
  values.reserve(product_of(cards));

  std::size_t stride = 1;
  for (std::size_t i = scope_.size(); i-- > drop + 1;) stride *= cards_[i];
  const std::size_t block = stride * cards_[drop];

  for (std::size_t base = 0; base < values_.size(); base += block) {
    const std::size_t offset = base + state * stride;
    for (std::size_t inner = 0; inner < stride; ++inner) {
      values.push_back(values_[offset + inner]);
    }
  }
  return Factor(std::move(scope), std::move(cards), std::move(values));
}

double Factor::total() const {
  double t = 0.0;
  for (double v : values_) t += v;
  return t;
}

}  // namespace kertbn::bn
