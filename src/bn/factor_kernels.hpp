#pragma once
/// \file factor_kernels.hpp
/// Flat factor kernels: the one factor type (FlatFactor) and the plans the
/// discrete inference engines run on — the junction tree, variable
/// elimination and the most probable explanation.
///
/// Each operation splits into a *plan* (alignment and stride tables, a
/// pure function of the operands' scopes and cardinalities) and an
/// *execution* (contiguous inner loops over raw value arrays). A
/// FactorWorkspace caches plans keyed by the scope and cardinality tuples
/// and reuses scratch buffers, so a calibrated tree's steady state performs
/// no allocation and no scope searching at all.
///
/// Two execution layers sit on top of the plans (see DESIGN "Query
/// serving" for the full contract):
///
///   * SIMD dispatch — the inner loops of products and column sums run
///     through the runtime-dispatched kernels in factor_simd.hpp (scalar /
///     AVX2 / AVX-512, probed once by common/cpu_features and overridable
///     with KERTBN_SIMD). Plans precompute the longest unit-stride
///     innermost run so the vector kernels never gather: each operand
///     either streams contiguously or broadcasts a constant across the run.
///   * One product plan — every product, pairwise or a chain
///     base × f1 × ... × fk, executes as ONE multi-operand pass of a chain
///     plan: every output element is a left fold of its aligned operand
///     entries, written once, so large products stream through cache
///     instead of materializing (and re-reading) each pairwise
///     intermediate. A clique→sepset message is that product followed by
///     the stepwise reduce.
///
/// Equivalence contract: every kernel performs the same floating-point
/// operations in the same order as the legacy Factor operations
/// (bn/factor.hpp, the reference the tests hold the kernels to), on EVERY
/// tier. Products are single multiplies per element, and sums accumulate
/// each output element's terms in ascending order whether the tier adds
/// them one at a time or vectorizes across output elements, so discrete
/// inference is bit-identical to the legacy operations and across the
/// scalar, AVX2 and AVX-512 tiers.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace kertbn::bn {

/// Evidence as sorted (node, state) pairs — the hot-path replacement for
/// std::map on calibration and query interfaces (contiguous, no per-node
/// allocation, binary-searchable).
using SortedEvidence = std::vector<std::pair<std::size_t, std::size_t>>;

/// Discrete factor (potential) over distinct variables: scope variables are
/// global node indices, values are row-major in scope order (first
/// variable most significant). No per-construction invariant checks, so
/// instances can be recycled across calibrations.
struct FlatFactor {
  std::vector<std::size_t> scope;
  std::vector<std::size_t> cards;
  std::vector<double> values;

  /// Factor of 1 over the empty scope.
  static FlatFactor unit() { return FlatFactor{{}, {}, {1.0}}; }

  std::size_t size() const { return values.size(); }
  /// Sum of all entries, in storage order.
  double total() const;
};

/// Precomputed pipeline for "sum out every scope variable not in target".
/// Variables are eliminated one at a time in scope order — the exact
/// elimination order (and therefore the exact floating-point sums) of the
/// legacy marginalize_to loop in junction_tree.cpp.
struct ReducePlan {
  struct Step {
    std::size_t stride = 1;    ///< Source stride of the eliminated variable.
    std::size_t card = 1;      ///< Its cardinality.
    std::size_t in_size = 1;   ///< Source value count.
    std::size_t out_size = 1;  ///< Result value count.
  };
  std::vector<Step> steps;
  /// Surviving variables in surviving order (target as a subsequence of
  /// the input scope).
  std::vector<std::size_t> out_scope;
  std::vector<std::size_t> out_cards;
  std::size_t out_size = 1;
};

ReducePlan make_reduce_plan(std::span<const std::size_t> scope,
                            std::span<const std::size_t> cards,
                            std::span<const std::size_t> target);

/// Runs the elimination pipeline into \p out; \p scratch provides
/// ping-pong storage between steps (resized internally, capacity kept).
/// Bit-exact vs. the legacy loops on every tier: each output element sums
/// its terms in ascending order.
void reduce_into(const ReducePlan& plan, std::span<const double> in,
                 std::vector<double>& scratch, std::vector<double>& out);

/// Product plan: out[i] = ops[0][..] * ops[1][..] * ... as a left fold per
/// element, for two or more operands. The merged scope folds operand
/// scopes left to right (each operand appends its new variables), which is
/// the scope and value layout of the pairwise chain, and the per-element
/// left fold performs the same multiplies in the same order, so a chain is
/// bit-identical to its pairwise products on every tier — while the output
/// is written exactly once and no pairwise intermediate is materialized.
struct ChainPlan {
  std::vector<std::size_t> out_scope;
  std::vector<std::size_t> out_cards;
  std::size_t out_size = 1;
  std::size_t nops = 0;
  /// Row-major [op][dim] stride table (0 when the dim is absent from op).
  std::vector<std::size_t> strides;
  /// The trailing `run_dims` output dimensions execute as one inner loop
  /// of `run_len` elements.
  std::size_t run_len = 1;
  std::size_t run_dims = 0;
  /// Whether every operand advances by 0 or 1 per element over the whole
  /// run (broadcast or contiguous stream), so the run dispatches to the
  /// SIMD chain kernels.
  bool vector_run = false;
  /// Per-operand per-element step over the run (∈ {0,1} when vector_run,
  /// general strides of the last dim otherwise).
  std::vector<std::size_t> run_steps;
};

/// Zeroes every entry of \p f whose state of \p var differs from
/// \p state. Arithmetic-equivalent to multiplying by an indicator factor
/// (bit-identical for the non-negative values factors hold: x*1.0 == x and
/// x*0.0 == +0.0), without allocating or growing the scope — which is what
/// keeps every downstream plan evidence-independent.
void apply_evidence(FlatFactor& f, std::size_t var, std::size_t state);

/// out = \p f restricted to var == state: keeps that slice (relative order
/// kept) and drops var from the scope. Pure data movement (bit-exact on
/// every tier). \p out may be \p f itself. Junction-tree reads slice a
/// clique's own evidence out of its belief with this.
void reduce_evidence(const FlatFactor& f, std::size_t var, std::size_t state,
                     FlatFactor& out);

/// In-place reduce_evidence: the eager evidence of variable elimination
/// and the most probable explanation, and the latter's traceback, run on
/// this.
void reduce_evidence(FlatFactor& f, std::size_t var, std::size_t state);

/// Open-addressing plan cache with stable plan addresses. Keys are
/// flattened scope tuples (length-prefixed components); lookups hash the
/// key in one contiguous pass instead of the lexicographic vector
/// comparisons a std::map key pays on every message of the steady state.
template <typename Plan>
class PlanCache {
 public:
  PlanCache() = default;
  // Deep copy (plan addresses are per-instance): QueryEngine clones warmed
  // junction trees — workspace included — into its workers.
  PlanCache(const PlanCache& other) { *this = other; }
  PlanCache& operator=(const PlanCache& other) {
    if (this == &other) return *this;
    entries_.clear();
    entries_.reserve(other.entries_.size());
    for (const auto& e : other.entries_) {
      entries_.push_back(std::make_unique<Entry>(*e));
    }
    slots_ = other.slots_;
    mask_ = other.mask_;
    return *this;
  }
  PlanCache(PlanCache&&) noexcept = default;
  PlanCache& operator=(PlanCache&&) noexcept = default;

  static std::uint64_t hash_key(std::span<const std::size_t> key) {
    // One multiply-xor round per element (FNV-1a over word-sized values)
    // with a single splitmix64 finalizer: the lookup sits on the
    // per-message steady state, so the per-element cost dominates and a
    // full avalanche per element is measurably too expensive there.
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ key.size();
    for (std::size_t v : key) {
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x00000100000001b3ull;
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return h;
  }

  Plan* find(std::span<const std::size_t> key) {
    if (entries_.empty()) return nullptr;
    const std::uint64_t h = hash_key(key);
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i] != 0) {
      Entry& e = *entries_[slots_[i] - 1];
      if (e.hash == h && e.key.size() == key.size() &&
          std::equal(e.key.begin(), e.key.end(), key.begin())) {
        return &e.plan;
      }
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  Plan& insert(std::span<const std::size_t> key, Plan plan) {
    if ((entries_.size() + 1) * 2 > slots_.size()) grow();
    auto e = std::make_unique<Entry>();
    e->hash = hash_key(key);
    e->key.assign(key.begin(), key.end());
    e->plan = std::move(plan);
    entries_.push_back(std::move(e));
    place(entries_.size());
    return entries_.back()->plan;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::size_t> key;
    Plan plan;
  };

  void place(std::size_t entry_index) {  // 1-based slot value
    const std::uint64_t h = entries_[entry_index - 1]->hash;
    std::size_t i = static_cast<std::size_t>(h) & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = static_cast<std::uint32_t>(entry_index);
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(cap, 0);
    mask_ = cap - 1;
    for (std::size_t n = 1; n <= entries_.size(); ++n) place(n);
  }

  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

/// Per-tree cache of alignment plans and scratch buffers. Not thread-safe:
/// one workspace per worker (QueryEngine hands each pool worker its own).
class FactorWorkspace {
 public:
  /// out = a × b: the merged scope is a's variables, then b's new ones.
  /// Runs the two-operand chain plan. out must not alias a or b.
  void product(const FlatFactor& a, const FlatFactor& b, FlatFactor& out);

  /// out = base × factors[0] × factors[1] × ... as a left fold, in one
  /// pass of the chain plan of (base, factors...); an empty chain copies
  /// base. out must not alias any input.
  void product_chain(const FlatFactor& base,
                     std::span<const FlatFactor* const> factors,
                     FlatFactor& out);

  /// out = (base × factors...) with every variable outside \p target
  /// summed out — the clique→sepset message: the chain product into
  /// workspace scratch, then the stepwise reduce.
  void product_chain_reduce(const FlatFactor& base,
                            std::span<const FlatFactor* const> factors,
                            std::span<const std::size_t> target,
                            FlatFactor& out);

  /// out = f with every variable outside \p target summed out.
  void reduce(const FlatFactor& f, std::span<const std::size_t> target,
              FlatFactor& out);

  /// The cached plan that sums every variable outside \p target out of a
  /// factor shaped like \p f (counts as one plan lookup).
  const ReducePlan& reduce_plan(const FlatFactor& f,
                                std::span<const std::size_t> target);

  std::size_t plan_hits() const { return plan_hits_; }
  std::size_t plan_misses() const { return plan_misses_; }

 private:
  const ChainPlan& chain_plan(std::span<const FlatFactor* const> ops);

  /// Fills key_ with the length-prefixed scope and cardinality tuples of
  /// \p ops (+ target).
  void build_key(std::span<const FlatFactor* const> ops,
                 std::span<const std::size_t> target);

  PlanCache<ReducePlan> reduce_plans_;
  PlanCache<ChainPlan> chain_plans_;
  std::vector<std::size_t> key_;              // lookup-key scratch
  std::vector<const FlatFactor*> ops_;        // operand-list scratch
  std::vector<std::size_t> odometer_;
  std::vector<double> scratch_;
  FlatFactor chain_tmp_;  // product staging for product_chain_reduce
  std::size_t plan_hits_ = 0;
  std::size_t plan_misses_ = 0;
};

}  // namespace kertbn::bn
