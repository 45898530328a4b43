// Compiled with -ffp-contract=off (see response_tape.hpp and
// CMakeLists.txt): a blend's `out + p * c` must round twice.
#include "kert/response_tape.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/cpu_features.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KERTBN_X86_SIMD 1
#endif

namespace kertbn::core {
namespace {

struct Program {
  const ResponseTape::Op* ops;
  std::size_t op_count;
  const std::size_t* args;
  const double* weights;
  double* rows;
  std::size_t width;
};

/// The op loop. Inlined into one function per tier, whose target
/// attribute sets the width the loops below are vectorized at.
__attribute__((always_inline)) inline void run_ops(const Program& p) {
  const std::size_t width = p.width;
  for (std::size_t o = 0; o < p.op_count; ++o) {
    const ResponseTape::Op& op = p.ops[o];
    double* out = p.rows + op.out * width;
    const std::size_t* args = p.args + op.first_arg;
    const double* weights = p.weights + op.first_arg;
    auto child = [&](std::size_t j) { return p.rows + args[j] * width; };
    switch (op.kind) {
      case wf::ExprKind::kSum: {
        const double* c0 = child(0);
        for (std::size_t k = 0; k < width; ++k) out[k] = 0.0 + c0[k];
        for (std::size_t j = 1; j < op.arg_count; ++j) {
          const double* c = child(j);
          for (std::size_t k = 0; k < width; ++k) out[k] += c[k];
        }
        break;
      }
      case wf::ExprKind::kMax: {
        std::copy_n(child(0), width, out);
        for (std::size_t j = 1; j < op.arg_count; ++j) {
          const double* c = child(j);
          for (std::size_t k = 0; k < width; ++k) {
            out[k] = std::max(out[k], c[k]);
          }
        }
        break;
      }
      case wf::ExprKind::kBlend: {
        const double* c0 = child(0);
        const double p0 = weights[0];
        for (std::size_t k = 0; k < width; ++k) out[k] = 0.0 + p0 * c0[k];
        for (std::size_t j = 1; j < op.arg_count; ++j) {
          const double* c = child(j);
          const double pj = weights[j];
          for (std::size_t k = 0; k < width; ++k) out[k] += pj * c[k];
        }
        break;
      }
      case wf::ExprKind::kScale: {
        const double* c = child(0);
        const double factor = weights[0];
        for (std::size_t k = 0; k < width; ++k) out[k] = factor * c[k];
        break;
      }
      case wf::ExprKind::kService:
      case wf::ExprKind::kConstant:
        KERTBN_ASSERT(false && "leaves are rows, not ops");
        break;
    }
  }
}

#if KERTBN_X86_SIMD
__attribute__((target("avx512f"))) void run_avx512(const Program& p) {
  run_ops(p);
}
__attribute__((target("avx2"))) void run_avx2(const Program& p) {
  run_ops(p);
}
#endif

}  // namespace

ResponseTape::ResponseTape(const wf::Expr& expr, std::size_t n,
                           std::size_t width)
    : n_(n), width_(width), row_count_(n) {
  result_ = compile(expr);
  rows_.assign(row_count_ * width_, 0.0);
}

const double* ResponseTape::run() {
  const Program p{ops_.data(),     ops_.size(),  args_.data(),
                  weights_.data(), rows_.data(), width_};
#if KERTBN_X86_SIMD
  switch (simd::active_tier()) {
    case simd::Tier::kAvx512:
      run_avx512(p);
      return row(result_);
    case simd::Tier::kAvx2:
      run_avx2(p);
      return row(result_);
    case simd::Tier::kScalar:
      break;
  }
#endif
  run_ops(p);
  return row(result_);
}

std::size_t ResponseTape::compile(const wf::Expr& e) {
  if (e.kind() == wf::ExprKind::kService) {
    KERTBN_EXPECTS(e.service_index() < n_);
    return e.service_index();
  }
  // The Cardoso reduction emits no constants.
  KERTBN_EXPECTS(e.kind() != wf::ExprKind::kConstant);
  std::vector<std::size_t> children;
  for (const auto& c : e.children()) children.push_back(compile(*c));
  const Op op{e.kind(), row_count_++, args_.size(), children.size()};
  args_.insert(args_.end(), children.begin(), children.end());
  if (e.kind() == wf::ExprKind::kBlend) {
    weights_.insert(weights_.end(), e.blend_probs().begin(),
                    e.blend_probs().end());
  } else if (e.kind() == wf::ExprKind::kScale) {
    weights_.push_back(e.scale_factor());
  } else {
    weights_.resize(args_.size(), 0.0);
  }
  ops_.push_back(op);
  return op.out;
}

}  // namespace kertbn::core
