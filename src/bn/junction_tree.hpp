#pragma once
/// \file junction_tree.hpp
/// Junction-tree (clique-tree) inference for all-discrete networks.
///
/// Variable elimination answers one query per run; the Section 5
/// applications fire many queries against the same freshly-reconstructed
/// model (dComp over every unobservable service, pAccel over every
/// candidate action, six thresholds each). A calibrated junction tree
/// amortizes that: one moralization + min-fill triangulation + two-pass
/// message schedule, then every node's posterior is a cheap clique
/// marginalization.
///
/// Pipeline: moral graph -> min-fill elimination order -> cliques ->
/// maximum-weight spanning tree over separator sizes -> CPT assignment ->
/// evidence reduction -> upward/downward sum-product calibration.
///
/// Serving-path design (see DESIGN "Query serving"): clique potentials,
/// messages and beliefs all run on the flat kernels in factor_kernels.hpp;
/// queries go through a per-tree FactorWorkspace, so the steady state
/// reuses cached alignment plans and scratch buffers. Calibration is *lazy
/// and incremental*: calibrate() only records the evidence and marks the
/// cliques whose potentials changed (evidence attaches at a variable's
/// family clique). A posterior read then pulls exactly the messages
/// directed toward the target clique; any message whose source side
/// contains no dirty clique is reused verbatim from the cached
/// no-evidence calibration. Message fixed points are schedule-independent,
/// so every answer stays bit-identical to the eager legacy schedule.
///
/// Evidence enters in two ways. A message leaving a dirty clique reads the
/// clique's potential with the non-matching slices zeroed, so message
/// shapes — and therefore every cached message plan — are
/// evidence-independent. A read (posterior, P(e)) instead takes the
/// clique's belief *without* its own evidence — the cached clean belief
/// when no other clique of the component is dirty, as on a one-clique
/// KERT-BN — and copies out only the observed slice before reducing or
/// summing it. Zeroing commutes with the product chain (x·0 = +0 and
/// x·1 = x for the finite non-negative values factors hold) and adding +0
/// to a non-negative sum is exact, so the slice performs the same non-zero
/// additions in the same order as reducing the zero-filled belief: the
/// answers are bit-identical to it.
///
/// A clique→sepset message is the chain product of the clique's base and
/// its incoming messages followed by the stepwise reduce to the separator,
/// through the runtime-dispatched SIMD kernels (common/cpu_features).
/// Every kernel performs the legacy engines' floating-point operations in
/// their order on every tier, so answers are bit-identical to them and
/// across the scalar, AVX2 and AVX-512 tiers. Clean and evidence paths
/// share one kernel call, so incremental-vs-full bit-identity holds too.

#include <map>
#include <vector>

#include "bn/factor_kernels.hpp"
#include "bn/network.hpp"

namespace kertbn::bn {

class JunctionTree {
 public:
  /// Incremental-recalibration bookkeeping, cumulative over the tree's
  /// lifetime. `messages_reused` counts pulls satisfied by the cached
  /// no-evidence calibration (the incremental win); `messages_recomputed`
  /// counts actual kernel executions.
  struct CalibrationStats {
    std::size_t calibrations = 0;
    std::size_t full_calibrations = 0;  ///< calibrations with every clique dirty
    std::size_t messages_recomputed = 0;
    std::size_t messages_reused = 0;
    std::size_t beliefs_computed = 0;
  };

  /// Builds the tree structure for a complete all-discrete network. The
  /// no-evidence calibration is *not* run here: it is computed lazily on
  /// first use and kept as the baseline the incremental path reuses. The
  /// network must outlive the tree.
  explicit JunctionTree(const BayesianNetwork& net);

  /// Re-calibrates with the given evidence (node -> state). Only
  /// bookkeeping happens here (dirty-clique marking); message work is
  /// deferred to the next posterior / evidence_probability read.
  void calibrate(const std::map<std::size_t, std::size_t>& evidence);

  /// Hot-path variant: evidence as sorted (node, state) pairs, no
  /// per-node allocation. (Named, not overloaded: a braced initializer
  /// list would be ambiguous against the map overload.)
  void calibrate_sorted(const SortedEvidence& evidence);

  /// Incremental recalibration reuses the cached no-evidence messages for
  /// every subtree without dirty cliques (default). When off, every
  /// calibrate() recomputes the full schedule — the legacy cost model,
  /// kept for benchmarking and as a bit-identical cross-check.
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  /// Precomputes the no-evidence calibration, all clique beliefs, and the
  /// per-node posterior reduction plans. After warm(), no-evidence reads
  /// (posterior / evidence_probability) on a const tree are mutation-free
  /// and safe to share across threads; evidence calibration still requires
  /// an exclusive (per-worker) copy.
  void warm();

  /// Posterior P(v | current evidence). v must not be an evidence node.
  std::vector<double> posterior(std::size_t v) const;

  /// Probability of the current evidence, P(e) (1 when none set).
  double evidence_probability() const;

  std::size_t clique_count() const { return cliques_.size(); }
  /// Size (number of variables) of the largest clique — the treewidth+1
  /// proxy that governs inference cost.
  std::size_t max_clique_size() const;

  const CalibrationStats& stats() const { return stats_; }
  /// Diagnostics: the clique holding node v's family, and clique c's
  /// no-evidence potential (the product of its families, the unit factor
  /// when it holds none).
  std::size_t family_clique(std::size_t v) const { return family_clique_[v]; }
  const FlatFactor& clique_potential(std::size_t c) const {
    ensure_clean();
    return clean_base_[c];
  }
  /// Plan-cache hit rate of the underlying workspace (diagnostics).
  std::size_t plan_hits() const { return ws_.plan_hits(); }
  std::size_t plan_misses() const { return ws_.plan_misses(); }

 private:
  struct Edge {
    std::size_t a;
    std::size_t b;
    std::vector<std::size_t> separator;
  };

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void build_structure();
  /// Fills clean_base_ with each clique's no-evidence potential.
  void build_bases() const;

  /// Computes the cached no-evidence calibration once: clean clique
  /// potentials and the full fixed point of directed messages.
  void ensure_clean() const;

  /// Directed message id for x -> y (x, y adjacent): 2*edge + side.
  std::size_t message_id(std::size_t x, std::size_t y) const;
  /// True when message x -> y must be recomputed under the current dirty
  /// set (a dirty clique lies on x's side of the edge).
  bool message_affected(std::size_t x, std::size_t y) const;

  /// Message x -> y for the current evidence (pull-based; recursive).
  const FlatFactor& message(std::size_t x, std::size_t y) const;
  /// Clique potential under current evidence (clean base + zeroed slices);
  /// only messages leaving a dirty clique read it.
  const FlatFactor& potential(std::size_t c) const;
  /// Belief of clique c under every evidence except c's own: clean base ×
  /// current incoming messages (the cached clean belief when no other
  /// clique of c's component is dirty).
  const FlatFactor& belief(std::size_t c) const;
  /// belief(c) restricted to c's own evidence: the belief itself when c
  /// holds none, else its observed slice in read_slice_.
  const FlatFactor& read_belief(std::size_t c) const;
  const FlatFactor& clean_belief(std::size_t c) const;

  const BayesianNetwork& net_;
  std::vector<std::vector<std::size_t>> cliques_;  // sorted variable ids
  std::vector<Edge> edges_;                         // tree edges
  std::vector<std::vector<std::size_t>> neighbors_;  // clique adjacency
  std::vector<std::size_t> family_clique_;  // node -> clique holding family
  // Rooted-forest view (root = smallest clique index of each component,
  // matching the legacy component discovery order).
  std::vector<std::size_t> parent_clique_;   // kNone at roots
  std::vector<std::size_t> parent_edge_;     // edge index to parent
  std::vector<std::size_t> component_of_;    // clique -> component id
  std::vector<std::size_t> roots_;           // ascending clique index
  std::vector<std::size_t> postorder_;       // children before parents

  bool incremental_ = true;

  // ---- cached no-evidence calibration (computed once, then immutable) --
  mutable bool clean_ready_ = false;
  mutable std::vector<FlatFactor> clean_base_;      // per clique
  mutable std::vector<FlatFactor> clean_msgs_;      // per directed id
  // Per clique (lazy); a clique with no neighbours serves its base instead.
  mutable std::vector<FlatFactor> clean_beliefs_;
  mutable std::vector<char> clean_belief_ready_;
  mutable std::vector<double> clean_root_total_;    // per component

  // ---- current-evidence state (epoch-tagged lazy caches) ---------------
  SortedEvidence evidence_;
  mutable std::size_t epoch_ = 0;
  std::vector<char> dirty_;                 // clique potential != clean
  std::vector<std::size_t> subtree_dirty_;  // dirty cliques under c
  std::vector<std::size_t> comp_dirty_;     // dirty cliques per component
  mutable std::vector<FlatFactor> cur_msgs_;
  mutable std::vector<std::size_t> cur_msg_epoch_;
  mutable std::vector<FlatFactor> cur_pots_;
  mutable std::vector<std::size_t> cur_pot_epoch_;
  mutable std::vector<FlatFactor> cur_beliefs_;
  mutable std::vector<std::size_t> cur_belief_epoch_;
  mutable double evidence_probability_ = 1.0;
  mutable std::size_t ep_epoch_ = 0;
  mutable bool ep_ready_ = false;

  // Per-node posterior reduction plans (belief scope -> {v}), filled by
  // warm() or on first use; reads of evidence slices use ws_'s plans.
  mutable std::vector<ReducePlan> posterior_plans_;
  mutable std::vector<char> posterior_plan_ready_;
  mutable FlatFactor read_slice_;
  mutable std::vector<double> read_scratch_;

  mutable FactorWorkspace ws_;
  // Depth-indexed operand lists for the recursive message pull: slot d
  // serves recursion depth d, so the hot path never allocates. Indexed
  // fresh on every use (never held by reference) because deeper recursion
  // may grow the pool.
  mutable std::vector<std::vector<const FlatFactor*>> msg_in_pool_;
  mutable std::size_t msg_depth_ = 0;
  mutable CalibrationStats stats_;
};

}  // namespace kertbn::bn
