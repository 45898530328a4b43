#pragma once
/// \file workflow.hpp
/// Workflow model built from the paper's four constructs — sequence,
/// parallel, choice, loop — plus two scenario-algebra extensions: a
/// `map`/fan-out construct (k parallel instances of a body over equal data
/// partitions, k drawn per execution) and a data-dependent choice (branch
/// distribution conditioned on a per-request data class). A workflow yields:
///   * the deterministic response-time function f(X) (Cardoso reduction),
///   * the count-metric function Σ Xᵢ (timeout-count form of Section 3.3),
///   * the immediate-upstream service edges that define the KERT-BN
///     structure (Section 3.2),
///   * execution semantics used by the simulator's workflow engine.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workflow/expr.hpp"

namespace kertbn::wf {

/// Node kinds of the workflow composition tree.
enum class NodeKind {
  kActivity,
  kSequence,
  kParallel,
  kChoice,
  kLoop,
  kMap,
  kDataChoice,
};

/// A node in the workflow tree.
class Node {
 public:
  using Ptr = std::shared_ptr<const Node>;

  /// Leaf activity executing service \p service_index.
  static Ptr activity(std::size_t service_index);
  static Ptr sequence(std::vector<Ptr> children);
  static Ptr parallel(std::vector<Ptr> children);
  /// Branch i is taken with probability probs[i] (must sum to 1).
  static Ptr choice(std::vector<Ptr> children, std::vector<double> probs);
  /// Body repeats while a biased coin (prob \p repeat_prob < 1) comes up
  /// heads; expected iterations 1/(1−p).
  static Ptr loop(Ptr body, double repeat_prob);
  /// Fan-out over data partitions: per execution, k = k_min + i is drawn
  /// with probability k_weights[i] (weights normalized here), the body runs
  /// as k parallel instances each over 1/k of the data, and the construct
  /// completes when the slowest instance does. k_min must be >= 1; a
  /// degenerate always-k-equals-1 map collapses to its body.
  static Ptr map(Ptr body, std::size_t k_min, std::vector<double> k_weights);
  /// Data-dependent choice: a per-request data class c is drawn from
  /// \p class_probs (summing to 1), then branch b from row c of
  /// \p branch_probs (one row per class, one column per child, each row
  /// summing to 1). A single-class node collapses to a plain choice over
  /// its only row.
  static Ptr data_choice(std::vector<Ptr> children,
                         std::vector<double> class_probs,
                         std::vector<std::vector<double>> branch_probs);

  NodeKind kind() const { return kind_; }
  std::size_t service_index() const;
  double repeat_prob() const;
  const std::vector<Ptr>& children() const { return children_; }
  const std::vector<double>& choice_probs() const { return probs_; }

  /// Smallest fan-out a map can draw (kMap only).
  std::size_t map_k_min() const;
  /// Normalized fan-out weights: P[k = map_k_min() + i] (kMap only).
  const std::vector<double>& map_k_weights() const;
  /// E[k] of the fan-out distribution (kMap only).
  double expected_instances() const;
  /// E[1/k] — the makespan shrink factor of the Cardoso-style map
  /// reduction f_map(X) = E[1/k] · f_body(X) (kMap only).
  double expected_inverse_instances() const;

  /// Data-class distribution γ (kDataChoice only).
  const std::vector<double>& class_probs() const;
  /// Per-class branch rows P[branch | class] (kDataChoice only).
  const std::vector<std::vector<double>>& branch_probs() const;
  /// Class-marginal branch distribution q_b = Σ_c γ_c · P[b | c]
  /// (kDataChoice only) — the blend weights of the time reduction.
  std::vector<double> marginal_branch_probs() const;

 private:
  explicit Node(NodeKind kind) : kind_(kind) {}

  NodeKind kind_;
  std::size_t service_ = 0;
  double repeat_prob_ = 0.0;
  std::size_t map_k_min_ = 1;
  std::vector<Ptr> children_;
  std::vector<double> probs_;  // choice probs / map k-weights / class probs
  std::vector<std::vector<double>> branch_probs_;
};

/// A service-oriented workflow: named services plus a composition tree.
class Workflow {
 public:
  Workflow(std::vector<std::string> service_names, Node::Ptr root);

  std::size_t service_count() const { return names_.size(); }
  const std::vector<std::string>& service_names() const { return names_; }
  const Node::Ptr& root() const { return root_; }

  /// Cardoso reduction of the tree to the deterministic response-time
  /// function f(X) of Equation 4, reduced once at construction. The tree
  /// is immutable, so copies of the workflow share it.
  const Expr::Ptr& response_time_expr() const { return response_expr_; }

  /// Count-metric reduction (e.g. timeout request count): D = Σᵢ Xᵢ over
  /// the services the workflow touches.
  Expr::Ptr count_expr() const;

  /// Immediate-upstream edges (upstream service, downstream service):
  /// service i is the immediate upstream of j when i's completion feeds j's
  /// invocation. These are the knowledge-given KERT-BN X-edges.
  std::vector<std::pair<std::size_t, std::size_t>> upstream_edges() const;

  /// Services that can run first / last (used by edge derivation and by the
  /// simulator's engine).
  std::vector<std::size_t> entry_services() const;
  std::vector<std::size_t> exit_services() const;

  std::string describe() const;

 private:
  std::vector<std::string> names_;
  Node::Ptr root_;
  Expr::Ptr response_expr_;
};

}  // namespace kertbn::wf
