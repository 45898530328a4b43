#include "bn/factor_kernels.hpp"

#include <algorithm>
#include <array>

#include "bn/factor_simd.hpp"
#include "common/contract.hpp"
#include "common/cpu_features.hpp"

namespace kertbn::bn {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Below this width a dispatched kernel call is pure overhead; the inline
/// scalar loop used instead performs the identical operation order, so the
/// threshold trades vector width against call overhead and never changes a
/// result.
constexpr std::size_t kMinColsWidth = 4;

std::size_t find_in(std::span<const std::size_t> scope, std::size_t var) {
  for (std::size_t i = 0; i < scope.size(); ++i) {
    if (scope[i] == var) return i;
  }
  return kNone;
}

/// Row-major stride of dimension \p dim in a factor with \p cards.
std::size_t stride_of(std::span<const std::size_t> cards, std::size_t dim) {
  std::size_t s = 1;
  for (std::size_t i = cards.size(); i-- > dim + 1;) s *= cards[i];
  return s;
}

std::size_t product_of(std::span<const std::size_t> cards) {
  std::size_t n = 1;
  for (std::size_t c : cards) n *= c;
  return n;
}

/// Finds the longest trailing run of dimensions over which every stride
/// row is uniformly constant (0 throughout) or exactly contiguous (the
/// row's offset advances by 1 per element across the whole run) — the
/// restructured odometer walk that makes the innermost loop unit-stride
/// and therefore gather-free. Card-1 dimensions never advance and are
/// included unconditionally. On success fills \p steps with each row's
/// per-element step (0 = broadcast, 1 = stream); if even the innermost
/// advancing dimension disqualifies some row, falls back to a
/// one-dimension run with the rows' general strides in \p steps.
struct TrailingRun {
  std::size_t len = 1;
  std::size_t dims = 0;
  bool vector_run = false;
};

TrailingRun find_trailing_run(std::span<const std::size_t> cards,
                              std::span<const std::size_t* const> rows,
                              std::vector<std::size_t>& steps) {
  TrailingRun r;
  const std::size_t nd = cards.size();
  steps.assign(rows.size(), 0);
  if (nd == 0) return r;

  enum : std::uint8_t { kUnset = 0, kConst = 1, kContig = 2 };
  std::vector<std::uint8_t> modes(rows.size(), kUnset);
  std::vector<std::uint8_t> trial(rows.size());
  r.vector_run = true;
  while (r.dims < nd) {
    const std::size_t d = nd - 1 - r.dims;
    const std::size_t c = cards[d];
    if (c > 1) {
      trial = modes;
      bool ok = true;
      for (std::size_t k = 0; k < rows.size() && ok; ++k) {
        const std::size_t s = rows[k][d];
        switch (trial[k]) {
          case kUnset:
            if (s == 0) {
              trial[k] = kConst;
            } else if (s == r.len) {
              trial[k] = kContig;
            } else {
              ok = false;
            }
            break;
          case kConst:
            ok = (s == 0);
            break;
          default:  // kContig
            ok = (s == r.len);
            break;
        }
      }
      if (!ok) break;
      modes = trial;
      r.len *= c;
    }
    r.dims += 1;
  }

  if (r.dims == 0) {
    r.vector_run = false;
    r.dims = 1;
    r.len = cards[nd - 1];
    for (std::size_t k = 0; k < rows.size(); ++k) steps[k] = rows[k][nd - 1];
    return r;
  }
  for (std::size_t k = 0; k < rows.size(); ++k) {
    steps[k] = (modes[k] == kContig) ? 1 : 0;
  }
  return r;
}

/// Advances the outer odometer (dims [0, outer_nd), last fastest),
/// carrying every offset along its stride row. Returns false when the
/// walk completes.
bool advance_outer(std::span<const std::size_t> cards, std::size_t outer_nd,
                   std::vector<std::size_t>& odometer,
                   std::span<const std::size_t* const> rows,
                   std::size_t* offs) {
  std::size_t d = outer_nd;
  while (d-- > 0) {
    for (std::size_t k = 0; k < rows.size(); ++k) offs[k] += rows[k][d];
    if (++odometer[d] < cards[d]) return true;
    odometer[d] = 0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      offs[k] -= rows[k][d] * cards[d];
    }
  }
  return false;
}

/// Merged product scope: fold operand scopes left to right, each operand
/// appending its new variables — the exact scope (and value layout) the
/// pairwise product chain yields.
void merge_scopes(std::span<const FlatFactor* const> ops,
                  std::vector<std::size_t>& scope,
                  std::vector<std::size_t>& cards) {
  scope.clear();
  cards.clear();
  for (const FlatFactor* op : ops) {
    KERTBN_EXPECTS(op->scope.size() == op->cards.size());
    for (std::size_t i = 0; i < op->scope.size(); ++i) {
      if (find_in(scope, op->scope[i]) == kNone) {
        scope.push_back(op->scope[i]);
        cards.push_back(op->cards[i]);
      }
    }
  }
}

void fill_stride_row(std::span<const std::size_t> out_scope,
                     const FlatFactor& op, std::size_t* row) {
  for (std::size_t d = 0; d < out_scope.size(); ++d) {
    const std::size_t idx = find_in(op.scope, out_scope[d]);
    row[d] = (idx == kNone) ? 0 : stride_of(op.cards, idx);
  }
}

/// Stack-or-heap operand state for the multi-operand walk: per-operand
/// offsets, stride-row pointers and inner-run descriptors. Messages have a
/// handful of operands, so the stack arrays are the steady state.
struct OperandState {
  static constexpr std::size_t kStack = 16;
  std::array<std::size_t, kStack> offs_stack;
  std::array<const std::size_t*, kStack> rows_stack;
  std::array<simd_kernels::ChainOp, kStack> cops_stack;
  std::vector<std::size_t> offs_heap;
  std::vector<const std::size_t*> rows_heap;
  std::vector<simd_kernels::ChainOp> cops_heap;
  std::size_t* offs = nullptr;
  const std::size_t** rows = nullptr;
  simd_kernels::ChainOp* cops = nullptr;

  OperandState(std::size_t nops, const std::size_t* strides, std::size_t nd) {
    if (nops > kStack) {
      offs_heap.assign(nops, 0);
      rows_heap.resize(nops);
      cops_heap.resize(nops);
      offs = offs_heap.data();
      rows = rows_heap.data();
      cops = cops_heap.data();
    } else {
      offs = offs_stack.data();
      rows = rows_stack.data();
      cops = cops_stack.data();
    }
    for (std::size_t k = 0; k < nops; ++k) {
      offs[k] = 0;
      rows[k] = strides + k * nd;
    }
  }
};

}  // namespace

double FlatFactor::total() const {
  double t = 0.0;
  for (double v : values) t += v;
  return t;
}

ReducePlan make_reduce_plan(std::span<const std::size_t> scope,
                            std::span<const std::size_t> cards,
                            std::span<const std::size_t> target) {
  KERTBN_EXPECTS(scope.size() == cards.size());
  ReducePlan plan;
  std::vector<std::size_t> cur_scope(scope.begin(), scope.end());
  std::vector<std::size_t> cur_cards(cards.begin(), cards.end());
  // Eliminate the first scope variable outside the target, repeatedly —
  // the same fixed point the legacy marginalize_to loop reaches, one
  // allocation-free step per variable.
  for (;;) {
    std::size_t drop = kNone;
    for (std::size_t i = 0; i < cur_scope.size(); ++i) {
      if (find_in(target, cur_scope[i]) == kNone) {
        drop = i;
        break;
      }
    }
    if (drop == kNone) break;
    ReducePlan::Step step;
    step.stride = stride_of(cur_cards, drop);
    step.card = cur_cards[drop];
    step.in_size = product_of(cur_cards);
    step.out_size = step.in_size / step.card;
    plan.steps.push_back(step);
    cur_scope.erase(cur_scope.begin() + static_cast<std::ptrdiff_t>(drop));
    cur_cards.erase(cur_cards.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  plan.out_scope = std::move(cur_scope);
  plan.out_cards = std::move(cur_cards);
  plan.out_size = product_of(plan.out_cards);
  return plan;
}

namespace {

/// One single-variable summation pass. Every branch accumulates k
/// ascending per output element in output order — the Factor::marginalize
/// contract — so every tier computes the same bits. stride > 1 vectorizes
/// ACROSS output elements (column sums); a stride == 1 sum runs within one
/// element and stays a sequential scalar fold.
void reduce_step(const ReducePlan::Step& s, const double* in, double* out) {
  if (s.stride == 1) {
    std::size_t o = 0;
    for (std::size_t base = 0; base < s.in_size; base += s.card) {
      double acc = 0.0;
      for (std::size_t k = 0; k < s.card; ++k) acc += in[base + k];
      out[o++] = acc;
    }
    return;
  }
  const std::size_t block = s.stride * s.card;
  // The scalar kernels perform these exact loops; skipping the per-block
  // indirect call on the scalar tier changes nothing but the call count
  // (blocks here are a handful of elements, so the calls are measurable).
  const bool vec = simd::active_tier() != simd::Tier::kScalar;
  if (vec && s.stride >= kMinColsWidth) {
    const simd_kernels::KernelOps& kops = simd_kernels::active_ops();
    std::size_t o = 0;
    for (std::size_t base = 0; base < s.in_size; base += block) {
      kops.reduce_cols(out + o, in + base, s.stride, s.card);
      o += s.stride;
    }
    return;
  }
  std::size_t o = 0;
  for (std::size_t base = 0; base < s.in_size; base += block) {
    for (std::size_t inner = 0; inner < s.stride; ++inner, ++o) {
      double acc = 0.0;
      for (std::size_t k = 0; k < s.card; ++k) {
        acc += in[base + k * s.stride + inner];
      }
      out[o] = acc;
    }
  }
}

}  // namespace

void reduce_into(const ReducePlan& plan, std::span<const double> in,
                 std::vector<double>& scratch, std::vector<double>& out) {
  if (plan.steps.empty()) {
    out.assign(in.begin(), in.end());
    return;
  }
  if (plan.steps.size() == 1) {
    out.resize(plan.steps[0].out_size);
    reduce_step(plan.steps[0], in.data(), out.data());
    return;
  }
  // Ping-pong between the two halves of one scratch buffer; sizes shrink
  // monotonically, so the first step's output bounds everything.
  const std::size_t half = plan.steps[0].out_size;
  scratch.resize(half * 2);
  double* bufs[2] = {scratch.data(), scratch.data() + half};
  reduce_step(plan.steps[0], in.data(), bufs[0]);
  std::size_t cur = 0;
  for (std::size_t i = 1; i + 1 < plan.steps.size(); ++i) {
    reduce_step(plan.steps[i], bufs[cur], bufs[1 - cur]);
    cur = 1 - cur;
  }
  out.resize(plan.steps.back().out_size);
  reduce_step(plan.steps.back(), bufs[cur], out.data());
}

namespace {

ChainPlan make_chain_plan(std::span<const FlatFactor* const> ops) {
  KERTBN_EXPECTS(!ops.empty());
  ChainPlan plan;
  plan.nops = ops.size();
  merge_scopes(ops, plan.out_scope, plan.out_cards);
  plan.out_size = product_of(plan.out_cards);
  const std::size_t nd = plan.out_scope.size();
  plan.strides.assign(plan.nops * nd, 0);
  std::vector<const std::size_t*> rows(plan.nops);
  for (std::size_t k = 0; k < plan.nops; ++k) {
    fill_stride_row(plan.out_scope, *ops[k], plan.strides.data() + k * nd);
    rows[k] = plan.strides.data() + k * nd;
  }
  const TrailingRun run =
      find_trailing_run(plan.out_cards, rows, plan.run_steps);
  plan.run_len = run.len;
  plan.run_dims = run.dims;
  plan.vector_run = run.vector_run;
  return plan;
}

void chain_product_into(const ChainPlan& plan,
                        std::span<const FlatFactor* const> ops,
                        std::vector<std::size_t>& odometer,
                        std::vector<double>& out) {
  KERTBN_EXPECTS(ops.size() == plan.nops);
  out.resize(plan.out_size);
  const std::size_t nops = plan.nops;
  const std::size_t nd = plan.out_cards.size();
  if (nd == 0) {
    double acc = ops[0]->values[0];
    for (std::size_t k = 1; k < nops; ++k) acc *= ops[k]->values[0];
    out[0] = acc;
    return;
  }
  const std::size_t outer_nd = nd - plan.run_dims;
  odometer.assign(outer_nd, 0);
  const simd_kernels::KernelOps& kops = simd_kernels::active_ops();
  std::size_t o = 0;
  if (nops == 2) {
    // Every pairwise product and every one-message belief lands here. Its
    // offsets and run descriptors stay in locals the indirect kernel call
    // cannot reach; the multi-operand walk below reloads them from the
    // operand state on every run, and a clique-base fold makes thousands
    // of runs a few elements long.
    const double* a = ops[0]->values.data();
    const double* b = ops[1]->values.data();
    const std::size_t step_a = plan.run_steps[0];
    const std::size_t step_b = plan.run_steps[1];
    const std::size_t* rows[2] = {plan.strides.data(),
                                  plan.strides.data() + nd};
    std::size_t offs[2] = {0, 0};
    do {
      if (plan.vector_run) {
        const simd_kernels::ChainOp cops[2] = {{a + offs[0], step_a},
                                               {b + offs[1], step_b}};
        kops.chain_mul(out.data() + o, cops, 2, plan.run_len);
        o += plan.run_len;
      } else {
        const double* pa = a + offs[0];
        const double* pb = b + offs[1];
        for (std::size_t i = 0; i < plan.run_len; ++i) {
          out[o++] = pa[i * step_a] * pb[i * step_b];
        }
      }
    } while (advance_outer(plan.out_cards, outer_nd, odometer, rows, offs));
    KERTBN_ASSERT(o == plan.out_size);
    return;
  }
  OperandState st(nops, plan.strides.data(), nd);
  const std::span<const std::size_t* const> row_span(st.rows, nops);
  do {
    if (plan.vector_run) {
      for (std::size_t k = 0; k < nops; ++k) {
        st.cops[k] = {ops[k]->values.data() + st.offs[k], plan.run_steps[k]};
      }
      kops.chain_mul(out.data() + o, st.cops, nops, plan.run_len);
      o += plan.run_len;
    } else {
      for (std::size_t i = 0; i < plan.run_len; ++i) {
        double acc = ops[0]->values[st.offs[0] + i * plan.run_steps[0]];
        for (std::size_t k = 1; k < nops; ++k) {
          acc *= ops[k]->values[st.offs[k] + i * plan.run_steps[k]];
        }
        out[o++] = acc;
      }
    }
  } while (
      advance_outer(plan.out_cards, outer_nd, odometer, row_span, st.offs));
  KERTBN_ASSERT(o == plan.out_size);
}

}  // namespace

void apply_evidence(FlatFactor& f, std::size_t var, std::size_t state) {
  const std::size_t dim = find_in(f.scope, var);
  KERTBN_EXPECTS(dim != kNone);
  KERTBN_EXPECTS(state < f.cards[dim]);
  const std::size_t stride = stride_of(f.cards, dim);
  const std::size_t card = f.cards[dim];
  const std::size_t block = stride * card;
  for (std::size_t base = 0; base < f.values.size(); base += block) {
    for (std::size_t k = 0; k < card; ++k) {
      if (k == state) continue;
      const std::size_t at = base + k * stride;
      std::fill(f.values.begin() + static_cast<std::ptrdiff_t>(at),
                f.values.begin() + static_cast<std::ptrdiff_t>(at + stride),
                0.0);
    }
  }
}

namespace {

/// Copies the values of \p in where the dimension with row-major
/// \p stride and cardinality \p card takes \p state to \p out, which may
/// equal \p in: every run lands at or before its source, so the forward
/// copy compacts in place.
void slice_values(const double* in, std::size_t in_size, std::size_t stride,
                  std::size_t card, std::size_t state, double* out) {
  if (stride == 1) {
    // A per-element copy call costs several times this plain gather.
    for (std::size_t i = state; i < in_size; i += card) *out++ = in[i];
    return;
  }
  const std::size_t block = stride * card;
  for (std::size_t base = state * stride; base < in_size; base += block) {
    out = std::copy(in + base, in + base + stride, out);
  }
}

}  // namespace

void reduce_evidence(const FlatFactor& f, std::size_t var, std::size_t state,
                     FlatFactor& out) {
  const std::size_t dim = find_in(f.scope, var);
  KERTBN_EXPECTS(dim != kNone);
  KERTBN_EXPECTS(state < f.cards[dim]);
  const std::size_t card = f.cards[dim];
  const std::size_t in_size = f.values.size();
  if (&out != &f) {
    out.scope = f.scope;
    out.cards = f.cards;
    out.values.resize(in_size / card);
  }
  slice_values(f.values.data(), in_size, stride_of(f.cards, dim), card, state,
               out.values.data());
  out.values.resize(in_size / card);
  out.scope.erase(out.scope.begin() + static_cast<std::ptrdiff_t>(dim));
  out.cards.erase(out.cards.begin() + static_cast<std::ptrdiff_t>(dim));
}

void reduce_evidence(FlatFactor& f, std::size_t var, std::size_t state) {
  reduce_evidence(f, var, state, f);
}

void FactorWorkspace::build_key(std::span<const FlatFactor* const> ops,
                                std::span<const std::size_t> target) {
  key_.clear();
  key_.push_back(ops.size());
  for (const FlatFactor* op : ops) {
    key_.push_back(op->scope.size());
    key_.insert(key_.end(), op->scope.begin(), op->scope.end());
    // Plans bake in strides, so equal scopes with other cardinalities
    // need their own plan.
    key_.insert(key_.end(), op->cards.begin(), op->cards.end());
  }
  key_.push_back(target.size());
  key_.insert(key_.end(), target.begin(), target.end());
}

const ReducePlan& FactorWorkspace::reduce_plan(
    const FlatFactor& f, std::span<const std::size_t> target) {
  const FlatFactor* fs[1] = {&f};
  build_key(fs, target);
  if (ReducePlan* p = reduce_plans_.find(key_)) {
    ++plan_hits_;
    return *p;
  }
  ++plan_misses_;
  return reduce_plans_.insert(key_, make_reduce_plan(f.scope, f.cards, target));
}

const ChainPlan& FactorWorkspace::chain_plan(
    std::span<const FlatFactor* const> ops) {
  build_key(ops, {});
  if (ChainPlan* p = chain_plans_.find(key_)) {
    ++plan_hits_;
    return *p;
  }
  ++plan_misses_;
  return chain_plans_.insert(key_, make_chain_plan(ops));
}

void FactorWorkspace::product(const FlatFactor& a, const FlatFactor& b,
                              FlatFactor& out) {
  const FlatFactor* factors[1] = {&b};
  product_chain(a, factors, out);
}

void FactorWorkspace::product_chain(const FlatFactor& base,
                                    std::span<const FlatFactor* const> factors,
                                    FlatFactor& out) {
  if (factors.empty()) {
    out.scope = base.scope;
    out.cards = base.cards;
    out.values = base.values;
    return;
  }
  ops_.clear();
  ops_.push_back(&base);
  ops_.insert(ops_.end(), factors.begin(), factors.end());
  const ChainPlan& plan = chain_plan(ops_);
  out.scope = plan.out_scope;
  out.cards = plan.out_cards;
  chain_product_into(plan, ops_, odometer_, out.values);
}

void FactorWorkspace::product_chain_reduce(
    const FlatFactor& base, std::span<const FlatFactor* const> factors,
    std::span<const std::size_t> target, FlatFactor& out) {
  if (factors.empty()) {
    reduce(base, target, out);
    return;
  }
  product_chain(base, factors, chain_tmp_);
  reduce(chain_tmp_, target, out);
}

void FactorWorkspace::reduce(const FlatFactor& f,
                             std::span<const std::size_t> target,
                             FlatFactor& out) {
  const ReducePlan& plan = reduce_plan(f, target);
  out.scope = plan.out_scope;
  out.cards = plan.out_cards;
  reduce_into(plan, f.values, scratch_, out.values);
}

}  // namespace kertbn::bn
