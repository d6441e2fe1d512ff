#include "solvers/operator.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "kernels/spmv.hpp"
#include "support/cpu_info.hpp"
#include "support/partition.hpp"

namespace spmvopt::solvers {

LinearOperator::LinearOperator(index_t nrows, index_t ncols, ApplyFn apply,
                               ApplyManyFn apply_many,
                               engine::ExecutionEngine* engine)
    : nrows_(nrows),
      ncols_(ncols),
      apply_(std::move(apply)),
      many_(std::move(apply_many)),
      engine_(engine) {
  if (nrows < 0 || ncols < 0 || !apply_)
    throw std::invalid_argument("LinearOperator: bad arguments");
}

LinearOperator LinearOperator::from_csr(const CsrMatrix& A) {
  auto part = balanced_nnz_partition(A.rowptr(), A.nrows(), default_threads());
  return LinearOperator(
      A.nrows(), A.ncols(),
      [&A, part = std::move(part)](const value_t* x, value_t* y) {
        kernels::spmv_balanced(A, part, x, y);
      });
}

LinearOperator LinearOperator::from_optimized(
    const optimize::OptimizedSpmv& spmv) {
  return LinearOperator(
      spmv.nrows(), spmv.ncols(),
      [&spmv](const value_t* x, value_t* y) { spmv.run(x, y); },
      [&spmv](const value_t* X, value_t* Y, index_t nrhs) {
        spmv.run_many(X, Y, static_cast<int>(nrhs));
      },
      spmv.engine());
}

void LinearOperator::apply(std::span<const value_t> x,
                           std::span<value_t> y) const {
  if (x.size() != static_cast<std::size_t>(ncols_) ||
      y.size() != static_cast<std::size_t>(nrows_))
    throw std::invalid_argument("LinearOperator::apply: size mismatch");
  apply_(x.data(), y.data());
}

void LinearOperator::apply(ConstVectorView x, VectorView y) const {
  if (x.count != ncols_ || y.count != nrows_)
    throw std::invalid_argument("LinearOperator::apply: size mismatch");
  if (x.dtype == Dtype::F64 && y.dtype == Dtype::F64) {
    apply_(static_cast<const value_t*>(x.data), static_cast<value_t*>(y.data));
    return;
  }
  std::vector<value_t> xd, yd;
  const value_t* xptr;
  if (x.dtype == Dtype::F32) {
    const float* xs = static_cast<const float*>(x.data);
    xd.assign(xs, xs + x.count);
    xptr = xd.data();
  } else {
    xptr = static_cast<const value_t*>(x.data);
  }
  value_t* yptr;
  if (y.dtype == Dtype::F32) {
    yd.resize(static_cast<std::size_t>(nrows_));
    yptr = yd.data();
  } else {
    yptr = static_cast<value_t*>(y.data);
  }
  apply_(xptr, yptr);
  if (y.dtype == Dtype::F32) {
    float* yo = static_cast<float*>(y.data);
    for (index_t i = 0; i < nrows_; ++i)
      yo[i] = static_cast<float>(yd[static_cast<std::size_t>(i)]);
  }
}

void LinearOperator::apply_many(const value_t* X, value_t* Y,
                                index_t nrhs) const noexcept {
  if (many_) {
    many_(X, Y, nrhs);
    return;
  }
  for (index_t r = 0; r < nrhs; ++r)
    apply_(X + static_cast<std::size_t>(r) * ncols_,
           Y + static_cast<std::size_t>(r) * nrows_);
}

void LinearOperator::apply_many(ConstMatrixView X, MatrixView Y) const {
  if (X.rows != Y.rows)
    throw std::invalid_argument(
        "LinearOperator::apply_many: right-hand-side count mismatch");
  if (X.cols != ncols_ || Y.cols != nrows_)
    throw std::invalid_argument(
        "LinearOperator::apply_many: batch extent mismatch");
  if (X.row_stride() < X.cols || Y.row_stride() < Y.cols)
    throw std::invalid_argument(
        "LinearOperator::apply_many: row stride below row extent");
  const index_t nrhs = X.rows;
  if (nrhs <= 0) return;
  if (X.dtype == Dtype::F64 && Y.dtype == Dtype::F64 &&
      X.row_stride() == X.cols && Y.row_stride() == Y.cols) {
    apply_many(static_cast<const value_t*>(X.data),
               static_cast<value_t*>(Y.data), nrhs);
    return;
  }
  std::vector<value_t> xb(static_cast<std::size_t>(ncols_) *
                          static_cast<std::size_t>(nrhs));
  std::vector<value_t> yb(static_cast<std::size_t>(nrows_) *
                          static_cast<std::size_t>(nrhs));
  for (index_t r = 0; r < nrhs; ++r) {
    value_t* dst = xb.data() + static_cast<std::size_t>(r) * ncols_;
    const std::size_t off =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(X.row_stride());
    if (X.dtype == Dtype::F32) {
      const float* src = static_cast<const float*>(X.data) + off;
      for (index_t j = 0; j < ncols_; ++j)
        dst[j] = static_cast<value_t>(src[j]);
    } else {
      const value_t* src = static_cast<const value_t*>(X.data) + off;
      std::copy(src, src + ncols_, dst);
    }
  }
  apply_many(xb.data(), yb.data(), nrhs);
  for (index_t r = 0; r < nrhs; ++r) {
    const value_t* src = yb.data() + static_cast<std::size_t>(r) * nrows_;
    const std::size_t off =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(Y.row_stride());
    if (Y.dtype == Dtype::F32) {
      float* dst = static_cast<float*>(Y.data) + off;
      for (index_t i = 0; i < nrows_; ++i)
        dst[i] = static_cast<float>(src[i]);
    } else {
      value_t* dst = static_cast<value_t*>(Y.data) + off;
      std::copy(src, src + nrows_, dst);
    }
  }
}

}  // namespace spmvopt::solvers
