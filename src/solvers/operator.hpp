// Linear-operator abstraction: lets the iterative solvers (the §IV-D context
// that motivates the lightweight-optimizer design) run on either a plain CSR
// matrix or an OptimizedSpmv without caring which.
#pragma once

#include <functional>
#include <span>

#include "optimize/optimized_spmv.hpp"
#include "sparse/csr.hpp"
#include "support/dtype.hpp"

namespace spmvopt::solvers {

class LinearOperator {
 public:
  using ApplyFn = std::function<void(const value_t*, value_t*)>;
  /// Batched matvec: X/Y are `nrhs` vector-major double vectors (vector r at
  /// X + r*ncols — the OptimizedSpmv::run_many layout).
  using ApplyManyFn =
      std::function<void(const value_t*, value_t*, index_t nrhs)>;

  /// The callable must not throw — the raw apply() below is the noexcept
  /// hot path of the DESIGN.md §8 run convention.  `apply_many` is optional;
  /// when absent, apply_many() falls back to nrhs single applies.  `engine`
  /// (not owned) is where the solvers run their vector operations; null
  /// selects the fallback executor (solvers/blas1.hpp).
  LinearOperator(index_t nrows, index_t ncols, ApplyFn apply,
                 ApplyManyFn apply_many = nullptr,
                 engine::ExecutionEngine* engine = nullptr);

  /// Views `A` (caller keeps it alive).  No engine: vector operations take
  /// the fallback executor.
  static LinearOperator from_csr(const CsrMatrix& A);
  /// Views `spmv` (caller keeps it alive).  When `spmv` is engine-bound,
  /// every solver matvec and every large vector operation runs on its
  /// persistent team — one runtime per solve.
  static LinearOperator from_optimized(const optimize::OptimizedSpmv& spmv);

  [[nodiscard]] index_t nrows() const noexcept { return nrows_; }
  [[nodiscard]] index_t ncols() const noexcept { return ncols_; }
  /// Engine the solvers' vector operations run on; null when none.
  [[nodiscard]] engine::ExecutionEngine* engine() const noexcept {
    return engine_;
  }

  /// y = A * x.  Hot path: unchecked, noexcept (solver inner loops validate
  /// sizes once at entry, not per iteration).
  void apply(const value_t* x, value_t* y) const noexcept { apply_(x, y); }

  /// Checked overload.
  void apply(std::span<const value_t> x, std::span<value_t> y) const;

  /// Typed entry (DESIGN.md §8): f32 views convert at the boundary.
  void apply(ConstVectorView x, VectorView y) const;

  /// Y = A * X for `nrhs` vector-major right-hand sides.  Routes through the
  /// batched callable when the operator has one (from_optimized wires it to
  /// OptimizedSpmv::run_many, so engine-bound operators hit the fused
  /// register-blocked SpMM, DESIGN.md §13); otherwise falls back to `nrhs`
  /// single applies.
  void apply_many(const value_t* X, value_t* Y, index_t nrhs) const noexcept;

  /// Typed batched entry: one right-hand side per matrix row.
  void apply_many(ConstMatrixView X, MatrixView Y) const;

  /// True when batched applies are fused rather than looped.
  [[nodiscard]] bool has_apply_many() const noexcept {
    return static_cast<bool>(many_);
  }

 private:
  index_t nrows_;
  index_t ncols_;
  ApplyFn apply_;
  ApplyManyFn many_;
  engine::ExecutionEngine* engine_;
};

}  // namespace spmvopt::solvers
