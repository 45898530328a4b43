#pragma once
/// \file factor_kernels.hpp
/// Flat factor kernels for the query-serving hot path.
///
/// Factor::product / marginalize are correct but allocate a fresh Factor
/// and re-derive stride maps on every call — fine for one-shot variable
/// elimination, ruinous for a junction tree that re-runs the same message
/// schedule on every evidence change. These kernels split each operation
/// into a *plan* (alignment and stride tables, a pure function of the two
/// scopes) and an *execution* (contiguous inner loops over raw value
/// arrays). A FactorWorkspace caches plans keyed by the scope tuple and
/// reuses scratch buffers, so a calibrated tree's steady state performs no
/// allocation and no scope searching at all.
///
/// Three execution layers sit on top of the plans (see DESIGN "Query
/// serving" for the full contract):
///
///   * SIMD dispatch — every inner loop runs through the runtime-dispatched
///     kernels in factor_simd.hpp (scalar / AVX2+FMA / AVX-512, probed once
///     by common/cpu_features and overridable with KERTBN_SIMD). Plans
///     precompute the longest unit-stride innermost run so the vector
///     kernels never gather: each operand either streams contiguously or
///     broadcasts a constant across the run.
///   * Blocked chain products — product_chain with two or more factors
///     executes as ONE multi-operand pass selected at plan time: every
///     output element is a left-fold of its aligned operand entries,
///     bit-identical to the pairwise fold but written once, so large CPT
///     products stream through cache instead of materializing (and
///     re-reading) each pairwise intermediate.
///   * Fused product+reduce — the clique→sepset message (product chain
///     followed by a sum-out to the separator) runs as a single
///     accumulation pass on SIMD tiers: the clique-sized intermediate is
///     never materialized at all.
///
/// Equivalence contract: with the scalar tier active every kernel performs
/// the same floating-point operations in the same order as the legacy
/// Factor code it replaces, so scalar inference is bit-identical to the
/// legacy engines (asserted exactly by the equivalence suites). Products
/// are single multiplies per element and stay bit-exact on EVERY tier; the
/// SIMD tiers may re-associate summations (stride-1 eliminations, fused
/// accumulation), which the suites bound at <= 1e-12 relative error on
/// posteriors.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bn/factor.hpp"

namespace kertbn::bn {

/// Evidence as sorted (node, state) pairs — the hot-path replacement for
/// std::map on calibration and query interfaces (contiguous, no per-node
/// allocation, binary-searchable).
using SortedEvidence = std::vector<std::pair<std::size_t, std::size_t>>;

/// Lightweight factor for kernel pipelines: the same layout contract as
/// Factor (values row-major in scope order, first variable most
/// significant) without per-construction invariant checks, so instances
/// can be recycled across calibrations.
struct FlatFactor {
  std::vector<std::size_t> scope;
  std::vector<std::size_t> cards;
  std::vector<double> values;

  static FlatFactor unit() { return FlatFactor{{}, {}, {1.0}}; }
  static FlatFactor from(const Factor& f) {
    return FlatFactor{f.scope(), f.cardinalities(), f.values()};
  }
  Factor to_factor() const { return Factor(scope, cards, values); }

  std::size_t size() const { return values.size(); }
  /// Sum of all entries, in storage order (same order as Factor::total).
  double total() const;
};

/// Precomputed alignment for product(a, b) -> out. The merged scope is a's
/// variables followed by b's new ones — the exact order Factor::product
/// uses — so executions are bit-identical to the legacy path.
///
/// The trailing `run_dims` output dimensions execute as one inner loop of
/// `run_len` elements. When `vector_run`, each operand advances by
/// `run_step_*` ∈ {0, 1} per element over the whole run (broadcast or
/// contiguous stream) and the loop dispatches to the SIMD chain kernels;
/// otherwise the run covers the last dimension only with the general
/// per-element strides in `run_step_*`.
struct ProductPlan {
  std::vector<std::size_t> out_scope;
  std::vector<std::size_t> out_cards;
  std::size_t out_size = 1;
  /// Per out-dimension stride into each operand (0 when absent from it).
  std::vector<std::size_t> stride_a;
  std::vector<std::size_t> stride_b;
  std::size_t run_len = 1;
  std::size_t run_dims = 0;
  bool vector_run = false;
  std::size_t run_step_a = 0;
  std::size_t run_step_b = 0;
};

ProductPlan make_product_plan(std::span<const std::size_t> scope_a,
                              std::span<const std::size_t> cards_a,
                              std::span<const std::size_t> scope_b,
                              std::span<const std::size_t> cards_b);

/// out[i] = a[align_a(i)] * b[align_b(i)] for every merged-scope index.
/// Bit-exact on every dispatch tier (single multiplies, no reassociation).
/// \p odometer is caller-provided scratch (resized internally).
void product_into(const ProductPlan& plan, std::span<const double> a,
                  std::span<const double> b,
                  std::vector<std::size_t>& odometer,
                  std::vector<double>& out);

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
/// Scalar tier: bit-exact vs. the legacy loops. SIMD tiers: summations
/// whose eliminated variable has stride > 1 stay bit-exact (per-element
/// accumulation order unchanged); stride-1 eliminations of wide runs use
/// re-associating horizontal sums (tolerance-bounded).
void reduce_into(const ReducePlan& plan, std::span<const double> in,
                 std::vector<double>& scratch, std::vector<double>& out);

/// Multi-operand product plan: out[i] = ops[0][..] * ops[1][..] * ... as a
/// left fold per element — the "blocked" execution of a product chain.
/// The merged scope is built by folding operand scopes left to right
/// (each operand appends its new variables), exactly the scope the
/// pairwise chain produces, and the per-element left fold performs the
/// same multiplies in the same order, so results are bit-identical to the
/// pairwise path on every tier — while the output is written exactly once
/// and no pairwise intermediate is ever materialized.
struct ChainPlan {
  std::vector<std::size_t> out_scope;
  std::vector<std::size_t> out_cards;
  std::size_t out_size = 1;
  std::size_t nops = 0;
  /// Row-major [op][dim] stride table (0 when the dim is absent from op).
  std::vector<std::size_t> strides;
  std::size_t run_len = 1;
  std::size_t run_dims = 0;
  bool vector_run = false;
  /// Per-operand per-element step over the run (∈ {0,1} when vector_run,
  /// general strides of the last dim otherwise).
  std::vector<std::size_t> run_steps;
};

ChainPlan make_chain_plan(std::span<const FlatFactor* const> ops);

void chain_product_into(const ChainPlan& plan,
                        std::span<const FlatFactor* const> ops,
                        std::vector<std::size_t>& odometer,
                        std::vector<double>& out);

/// Log-space execution of the chain product for deep chains: each output
/// element accumulates std::log of its aligned operand entries, then the
/// table is rescaled by its maximum log before exponentiation. Returns
/// log_scale such that the true product is out[i] * exp(log_scale) —
/// chains deep enough to underflow the flat fold keep their relative
/// magnitudes here. Scalar accumulation on every tier (a vectorized log
/// would need a math library the project does not carry); exact zeros
/// stay exact zeros.
double chain_product_log_into(const ChainPlan& plan,
                              std::span<const FlatFactor* const> ops,
                              std::vector<std::size_t>& odometer,
                              std::vector<double>& out);

/// Fused product+reduce plan: the merged index space of a product chain
/// walked once, accumulating each chain product directly into the reduced
/// output (out strides are 0 on eliminated dimensions). The clique-sized
/// intermediate is never materialized. Accumulation order differs from the
/// stepwise ReducePlan pipeline, so this path is used on SIMD tiers only
/// (tolerance-bounded); the scalar tier keeps the exact two-step pipeline.
struct ChainReducePlan {
  std::vector<std::size_t> mid_cards;  ///< Merged (product) cardinalities.
  std::size_t mid_size = 1;
  std::vector<std::size_t> out_scope;  ///< Survivors in merged-scope order.
  std::vector<std::size_t> out_cards;
  std::size_t out_size = 1;
  std::size_t nops = 0;
  /// Row-major [op][dim]; the row at op == nops holds the OUTPUT strides
  /// (0 on eliminated dims).
  std::vector<std::size_t> strides;
  std::size_t run_len = 1;
  std::size_t run_dims = 0;
  bool vector_run = false;
  std::vector<std::size_t> run_steps;  ///< Per op; last entry = out step.
  /// Whether the inner run accumulates into one output element (the run is
  /// fully eliminated: a fused dot product) or streams elementwise into a
  /// contiguous output span.
  bool run_eliminated = true;
};

ChainReducePlan make_chain_reduce_plan(std::span<const FlatFactor* const> ops,
                                       std::span<const std::size_t> target);

void chain_reduce_into(const ChainReducePlan& plan,
                       std::span<const FlatFactor* const> ops,
                       std::vector<std::size_t>& odometer,
                       std::vector<double>& out);

/// Zeroes every entry of \p f whose state of \p var differs from
/// \p state. Arithmetic-equivalent to multiplying by an indicator factor
/// (bit-identical for the non-negative values factors hold: x*1.0 == x and
/// x*0.0 == +0.0), without allocating or growing the scope — which is what
/// keeps every downstream plan evidence-independent.
void apply_evidence(FlatFactor& f, std::size_t var, std::size_t state);

/// out = Factor::reduce(var, state) of \p f: keeps the slice where
/// var == state (relative order kept) and drops var from the scope. Pure
/// data movement (bit-exact on every tier). \p out may be \p f itself.
/// Junction-tree reads slice a clique's own evidence out of its belief
/// with this.
void reduce_evidence(const FlatFactor& f, std::size_t var, std::size_t state,
                     FlatFactor& out);

/// In-place reduce_evidence: the eager-evidence path of variable
/// elimination runs on this.
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
  /// out = a × b (merged scope, legacy order). out must not alias a or b.
  void product(const FlatFactor& a, const FlatFactor& b, FlatFactor& out);

  /// out = base × factors[0] × factors[1] × ... (left fold, the order
  /// product_with_messages uses). out must not alias any input. Two or
  /// more factors execute through the blocked multi-operand ChainPlan
  /// (bit-identical per element, output written once); a single factor
  /// keeps the pairwise flat path.
  void product_chain(const FlatFactor& base,
                     std::span<const FlatFactor* const> factors,
                     FlatFactor& out);

  /// Opt-in deep-chain guard: out = (base × factors...) computed in log
  /// space and rescaled by its maximum element; returns log_scale such
  /// that the true product is out * exp(log_scale). Nothing in the
  /// serving path routes here by default — posteriors normalize away the
  /// scale and the flat fold is exact — but a caller folding hundreds of
  /// sub-unit tables (repeated-normalization territory) can switch to
  /// this path to keep relative magnitudes at ~1 ulp-per-term cost.
  double product_chain_log(const FlatFactor& base,
                           std::span<const FlatFactor* const> factors,
                           FlatFactor& out);

  /// out = (base × factors...) with every variable outside \p target
  /// summed out — the clique→sepset message. On SIMD tiers this fuses into
  /// one accumulation pass with no intermediate factor; on the scalar tier
  /// it runs the exact two-step pipeline (bit-identical to legacy).
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
  const ProductPlan& product_plan(const FlatFactor& a, const FlatFactor& b);
  const ChainPlan& chain_plan(std::span<const FlatFactor* const> ops);
  const ChainReducePlan& chain_reduce_plan(
      std::span<const FlatFactor* const> ops,
      std::span<const std::size_t> target);

  /// Fills key_ with the length-prefixed scope and cardinality tuples of
  /// \p ops (+ target).
  void build_key(std::span<const FlatFactor* const> ops,
                 std::span<const std::size_t> target);

  PlanCache<ProductPlan> product_plans_;
  PlanCache<ReducePlan> reduce_plans_;
  PlanCache<ChainPlan> chain_plans_;
  PlanCache<ChainReducePlan> chain_reduce_plans_;
  std::vector<std::size_t> key_;              // lookup-key scratch
  std::vector<const FlatFactor*> ops_;        // operand-list scratch
  std::vector<std::size_t> odometer_;
  std::vector<double> scratch_;
  FlatFactor chain_tmp_[2];
  FlatFactor fused_tmp_;  // scalar-tier staging for product_chain_reduce
  std::size_t plan_hits_ = 0;
  std::size_t plan_misses_ = 0;
};

}  // namespace kertbn::bn
