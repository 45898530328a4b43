#include "workflow/workflow.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/contract.hpp"

namespace kertbn::wf {

Node::Ptr Node::activity(std::size_t service_index) {
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kActivity));
  n->service_ = service_index;
  return n;
}

Node::Ptr Node::sequence(std::vector<Ptr> children) {
  KERTBN_EXPECTS(!children.empty());
  if (children.size() == 1) return children.front();
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kSequence));
  n->children_ = std::move(children);
  return n;
}

Node::Ptr Node::parallel(std::vector<Ptr> children) {
  KERTBN_EXPECTS(!children.empty());
  if (children.size() == 1) return children.front();
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kParallel));
  n->children_ = std::move(children);
  return n;
}

Node::Ptr Node::choice(std::vector<Ptr> children, std::vector<double> probs) {
  KERTBN_EXPECTS(!children.empty());
  KERTBN_EXPECTS(children.size() == probs.size());
  double total = 0.0;
  for (double p : probs) {
    KERTBN_EXPECTS(p >= 0.0);
    total += p;
  }
  KERTBN_EXPECTS(std::abs(total - 1.0) < 1e-9);
  if (children.size() == 1) return children.front();
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kChoice));
  n->children_ = std::move(children);
  n->probs_ = std::move(probs);
  return n;
}

Node::Ptr Node::loop(Ptr body, double repeat_prob) {
  KERTBN_EXPECTS(body != nullptr);
  KERTBN_EXPECTS(repeat_prob >= 0.0 && repeat_prob < 1.0);
  if (repeat_prob == 0.0) return body;
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kLoop));
  n->children_.push_back(std::move(body));
  n->repeat_prob_ = repeat_prob;
  return n;
}

Node::Ptr Node::map(Ptr body, std::size_t k_min,
                    std::vector<double> k_weights) {
  KERTBN_EXPECTS(body != nullptr);
  KERTBN_EXPECTS(k_min >= 1 && "map fan-out must draw k >= 1");
  KERTBN_EXPECTS(!k_weights.empty() && "map needs at least one k weight");
  double total = 0.0;
  for (double w : k_weights) {
    KERTBN_EXPECTS(std::isfinite(w) && w >= 0.0 &&
                   "map k weights must be finite and non-negative");
    total += w;
  }
  KERTBN_EXPECTS(total > 0.0 && "map k weights must not all be zero");
  // Normalize, but keep already-normalized weights bit-identical so
  // serialize/deserialize is a fixed point.
  if (std::abs(total - 1.0) >= 1e-9) {
    for (double& w : k_weights) w /= total;
  }
  // A map that always draws k = 1 is just its body.
  if (k_min == 1 && k_weights.size() == 1) return body;
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kMap));
  n->children_.push_back(std::move(body));
  n->map_k_min_ = k_min;
  n->probs_ = std::move(k_weights);
  return n;
}

Node::Ptr Node::data_choice(std::vector<Ptr> children,
                            std::vector<double> class_probs,
                            std::vector<std::vector<double>> branch_probs) {
  KERTBN_EXPECTS(!children.empty());
  KERTBN_EXPECTS(!class_probs.empty());
  KERTBN_EXPECTS(branch_probs.size() == class_probs.size() &&
                 "one branch row per data class");
  double gamma_total = 0.0;
  for (double g : class_probs) {
    KERTBN_EXPECTS(g >= 0.0);
    gamma_total += g;
  }
  KERTBN_EXPECTS(std::abs(gamma_total - 1.0) < 1e-9 &&
                 "class probabilities must sum to 1");
  for (const auto& row : branch_probs) {
    KERTBN_EXPECTS(row.size() == children.size() &&
                   "one branch probability per child in every row");
    double row_total = 0.0;
    for (double p : row) {
      KERTBN_EXPECTS(p >= 0.0);
      row_total += p;
    }
    KERTBN_EXPECTS(std::abs(row_total - 1.0) < 1e-9 &&
                   "each branch row must sum to 1");
  }
  if (children.size() == 1) return children.front();
  // One data class carries no data dependence: collapse to a plain choice.
  if (class_probs.size() == 1) {
    return choice(std::move(children), std::move(branch_probs.front()));
  }
  auto n = std::shared_ptr<Node>(new Node(NodeKind::kDataChoice));
  n->children_ = std::move(children);
  n->probs_ = std::move(class_probs);
  n->branch_probs_ = std::move(branch_probs);
  return n;
}

std::size_t Node::service_index() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kActivity);
  return service_;
}

double Node::repeat_prob() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kLoop);
  return repeat_prob_;
}

std::size_t Node::map_k_min() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kMap);
  return map_k_min_;
}

const std::vector<double>& Node::map_k_weights() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kMap);
  return probs_;
}

double Node::expected_instances() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kMap);
  double e = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    e += probs_[i] * static_cast<double>(map_k_min_ + i);
  }
  return e;
}

double Node::expected_inverse_instances() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kMap);
  double e = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    e += probs_[i] / static_cast<double>(map_k_min_ + i);
  }
  return e;
}

const std::vector<double>& Node::class_probs() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kDataChoice);
  return probs_;
}

const std::vector<std::vector<double>>& Node::branch_probs() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kDataChoice);
  return branch_probs_;
}

std::vector<double> Node::marginal_branch_probs() const {
  KERTBN_EXPECTS(kind_ == NodeKind::kDataChoice);
  std::vector<double> q(children_.size(), 0.0);
  for (std::size_t c = 0; c < probs_.size(); ++c) {
    for (std::size_t b = 0; b < q.size(); ++b) {
      q[b] += probs_[c] * branch_probs_[c][b];
    }
  }
  // Guard against accumulated rounding before Expr::blend's sum-to-1 check.
  double total = 0.0;
  for (double v : q) total += v;
  for (double& v : q) v /= total;
  return q;
}

namespace {

Expr::Ptr reduce_time(const Node& node) {
  switch (node.kind()) {
    case NodeKind::kActivity:
      return Expr::service(node.service_index());
    case NodeKind::kSequence: {
      std::vector<Expr::Ptr> parts;
      parts.reserve(node.children().size());
      for (const auto& c : node.children()) parts.push_back(reduce_time(*c));
      return Expr::sum(std::move(parts));
    }
    case NodeKind::kParallel: {
      std::vector<Expr::Ptr> parts;
      parts.reserve(node.children().size());
      for (const auto& c : node.children()) parts.push_back(reduce_time(*c));
      return Expr::max(std::move(parts));
    }
    case NodeKind::kChoice: {
      std::vector<Expr::Ptr> parts;
      parts.reserve(node.children().size());
      for (const auto& c : node.children()) parts.push_back(reduce_time(*c));
      return Expr::blend(std::move(parts), node.choice_probs());
    }
    case NodeKind::kLoop: {
      // Geometric number of body executions with continue-probability p:
      // expected iterations 1/(1-p) (Cardoso's loop reduction).
      const double expected = 1.0 / (1.0 - node.repeat_prob());
      return Expr::scale(expected, reduce_time(*node.children().front()));
    }
    case NodeKind::kMap: {
      // k instances each process 1/k of the data, so the makespan is the
      // body time shrunk by the fan-out; the knowledge-only reduction uses
      // E[1/k] (straggler spread is absorbed by the leak term).
      return Expr::scale(node.expected_inverse_instances(),
                         reduce_time(*node.children().front()));
    }
    case NodeKind::kDataChoice: {
      std::vector<Expr::Ptr> parts;
      parts.reserve(node.children().size());
      for (const auto& c : node.children()) parts.push_back(reduce_time(*c));
      // Blend over the class-marginal branch distribution.
      return Expr::blend(std::move(parts), node.marginal_branch_probs());
    }
  }
  KERTBN_ASSERT(false && "unreachable");
  return nullptr;
}

void entries_of(const Node& node, std::set<std::size_t>& out);
void exits_of(const Node& node, std::set<std::size_t>& out);

void entries_of(const Node& node, std::set<std::size_t>& out) {
  switch (node.kind()) {
    case NodeKind::kActivity:
      out.insert(node.service_index());
      return;
    case NodeKind::kSequence:
      entries_of(*node.children().front(), out);
      return;
    case NodeKind::kParallel:
    case NodeKind::kChoice:
    case NodeKind::kDataChoice:
      for (const auto& c : node.children()) entries_of(*c, out);
      return;
    case NodeKind::kLoop:
    case NodeKind::kMap:
      entries_of(*node.children().front(), out);
      return;
  }
}

void exits_of(const Node& node, std::set<std::size_t>& out) {
  switch (node.kind()) {
    case NodeKind::kActivity:
      out.insert(node.service_index());
      return;
    case NodeKind::kSequence:
      exits_of(*node.children().back(), out);
      return;
    case NodeKind::kParallel:
    case NodeKind::kChoice:
    case NodeKind::kDataChoice:
      for (const auto& c : node.children()) exits_of(*c, out);
      return;
    case NodeKind::kLoop:
    case NodeKind::kMap:
      exits_of(*node.children().front(), out);
      return;
  }
}

void collect_edges(const Node& node,
                   std::set<std::pair<std::size_t, std::size_t>>& edges) {
  if (node.kind() == NodeKind::kSequence) {
    const auto& children = node.children();
    for (std::size_t i = 0; i + 1 < children.size(); ++i) {
      std::set<std::size_t> ex;
      std::set<std::size_t> en;
      exits_of(*children[i], ex);
      entries_of(*children[i + 1], en);
      for (std::size_t a : ex) {
        for (std::size_t b : en) {
          if (a != b) edges.insert({a, b});
        }
      }
    }
  }
  for (const auto& c : node.children()) collect_edges(*c, edges);
}

void collect_services(const Node& node, std::set<std::size_t>& out) {
  if (node.kind() == NodeKind::kActivity) {
    out.insert(node.service_index());
    return;
  }
  for (const auto& c : node.children()) collect_services(*c, out);
}

}  // namespace

Workflow::Workflow(std::vector<std::string> service_names, Node::Ptr root)
    : names_(std::move(service_names)), root_(std::move(root)) {
  KERTBN_EXPECTS(root_ != nullptr);
  response_expr_ = reduce_time(*root_);
  // Every referenced service must exist in the registry.
  for (std::size_t s : response_expr_->referenced_services()) {
    KERTBN_EXPECTS(s < names_.size());
  }
}

Expr::Ptr Workflow::count_expr() const {
  std::set<std::size_t> services;
  collect_services(*root_, services);
  std::vector<Expr::Ptr> parts;
  parts.reserve(services.size());
  for (std::size_t s : services) parts.push_back(Expr::service(s));
  return Expr::sum(std::move(parts));
}

std::vector<std::pair<std::size_t, std::size_t>> Workflow::upstream_edges()
    const {
  std::set<std::pair<std::size_t, std::size_t>> edges;
  collect_edges(*root_, edges);
  return {edges.begin(), edges.end()};
}

std::vector<std::size_t> Workflow::entry_services() const {
  std::set<std::size_t> out;
  entries_of(*root_, out);
  return {out.begin(), out.end()};
}

std::vector<std::size_t> Workflow::exit_services() const {
  std::set<std::size_t> out;
  exits_of(*root_, out);
  return {out.begin(), out.end()};
}

std::string Workflow::describe() const {
  std::ostringstream out;
  out << "Workflow over " << names_.size() << " services\n";
  out << "  f(X) = " << response_time_expr()->to_string(names_) << '\n';
  out << "  upstream edges:";
  for (const auto& [a, b] : upstream_edges()) {
    out << ' ' << names_[a] << "->" << names_[b];
  }
  out << '\n';
  return out.str();
}

}  // namespace kertbn::wf
