#pragma once
/// \file response_tape.hpp
/// The workflow's response-time function f compiled for batch evaluation
/// (make_deterministic_cpt's inner loop).

#include <cstddef>
#include <vector>

#include "workflow/expr.hpp"

namespace kertbn::core {

/// f compiled into a flat post-order tape over rows of `width` doubles, one
/// evaluation point per element. Rows 0..n-1 are the service values, which
/// the leaves read directly; every internal node owns one further row.
/// run() applies exactly the arithmetic of wf::Expr::evaluate to each
/// element — sums and blends fold left from 0.0, max takes its children in
/// order — so every element equals a single-point evaluation bit for bit.
///
/// run() executes the op loop compiled for the active simd tier: the same
/// source, auto-vectorized at 2, 4 or 8 doubles per instruction. Every op
/// is element-wise, so the vector width changes no result; the file is
/// compiled with -ffp-contract=off so a blend's `out + p * c` is never
/// fused into one FMA rounding.
class ResponseTape {
 public:
  ResponseTape(const wf::Expr& expr, std::size_t n, std::size_t width);

  /// Service \p i's values, one per element. The n service rows are
  /// consecutive, `width` doubles apart.
  double* service_row(std::size_t i) { return row(i); }

  /// Evaluates f at every element; returns the row holding the results.
  const double* run();

  struct Op {
    wf::ExprKind kind;
    std::size_t out;        ///< Row written.
    std::size_t first_arg;  ///< Children: args_/weights_[first_arg, +count).
    std::size_t arg_count;
  };

 private:
  double* row(std::size_t r) { return rows_.data() + r * width_; }

  /// Emits \p e's ops after its children's; returns the row holding e.
  std::size_t compile(const wf::Expr& e);

  std::size_t n_;
  std::size_t width_;
  std::size_t row_count_;
  std::size_t result_ = 0;
  std::vector<Op> ops_;
  std::vector<std::size_t> args_;
  /// Parallel to args_: blend probabilities, the scale factor, else 0.
  std::vector<double> weights_;
  std::vector<double> rows_;
};

}  // namespace kertbn::core
