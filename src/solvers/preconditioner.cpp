#include "solvers/preconditioner.hpp"

#include <cmath>
#include <stdexcept>

#include "solvers/blas1.hpp"

namespace spmvopt::solvers {

namespace {

std::vector<value_t> extract_diagonal(const CsrMatrix& A) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("preconditioner: matrix must be square");
  std::vector<value_t> diag(static_cast<std::size_t>(A.nrows()), 0.0);
  for (index_t i = 0; i < A.nrows(); ++i)
    for (index_t j = A.rowptr()[i]; j < A.rowptr()[i + 1]; ++j)
      if (A.colind()[j] == i) diag[static_cast<std::size_t>(i)] = A.values()[j];
  for (std::size_t i = 0; i < diag.size(); ++i)
    if (diag[i] == 0.0)
      throw std::invalid_argument(
          "preconditioner: zero/missing diagonal at row " + std::to_string(i));
  return diag;
}

void require_size(index_t n, std::span<const value_t> r,
                  std::span<value_t> z) {
  if (r.size() != static_cast<std::size_t>(n) || z.size() != r.size())
    throw std::invalid_argument("preconditioner: size mismatch");
}

}  // namespace

IdentityPreconditioner::IdentityPreconditioner(index_t n) : n_(n) {
  if (n < 0) throw std::invalid_argument("IdentityPreconditioner: n < 0");
}

void IdentityPreconditioner::apply(std::span<const value_t> r,
                                   std::span<value_t> z) const {
  require_size(n_, r, z);
  copy(r, z);
}

JacobiPreconditioner::JacobiPreconditioner(const CsrMatrix& A) {
  const std::vector<value_t> diag = extract_diagonal(A);
  inv_diag_.resize(diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) inv_diag_[i] = 1.0 / diag[i];
}

void JacobiPreconditioner::apply(std::span<const value_t> r,
                                 std::span<value_t> z) const {
  require_size(size(), r, z);
  for (std::size_t i = 0; i < inv_diag_.size(); ++i) z[i] = r[i] * inv_diag_[i];
}

SsorPreconditioner::SsorPreconditioner(const CsrMatrix& A, value_t omega)
    : a_(&A), diag_(extract_diagonal(A)), omega_(omega) {
  if (omega <= 0.0 || omega >= 2.0)
    throw std::invalid_argument("SsorPreconditioner: omega must be in (0, 2)");
}

void SsorPreconditioner::apply(std::span<const value_t> r,
                               std::span<value_t> z) const {
  require_size(size(), r, z);
  const CsrMatrix& A = *a_;
  const index_t n = A.nrows();
  const value_t w = omega_;

  // Forward sweep: (D/ω + L) y = r, columns are sorted so j < i is a prefix.
  for (index_t i = 0; i < n; ++i) {
    value_t sum = r[static_cast<std::size_t>(i)];
    for (index_t k = A.rowptr()[i]; k < A.rowptr()[i + 1]; ++k) {
      const index_t j = A.colind()[k];
      if (j >= i) break;
      sum -= A.values()[k] * z[static_cast<std::size_t>(j)];
    }
    z[static_cast<std::size_t>(i)] =
        sum * w / diag_[static_cast<std::size_t>(i)];
  }
  // Scale by the middle factor ((2-ω)/ω · D).
  for (index_t i = 0; i < n; ++i)
    z[static_cast<std::size_t>(i)] *=
        (2.0 - w) / w * diag_[static_cast<std::size_t>(i)];
  // Backward sweep: (D/ω + U) z = y.
  for (index_t i = n - 1; i >= 0; --i) {
    value_t sum = z[static_cast<std::size_t>(i)];
    for (index_t k = A.rowptr()[i + 1] - 1; k >= A.rowptr()[i]; --k) {
      const index_t j = A.colind()[k];
      if (j <= i) break;
      sum -= A.values()[k] * z[static_cast<std::size_t>(j)];
    }
    z[static_cast<std::size_t>(i)] =
        sum * w / diag_[static_cast<std::size_t>(i)];
  }
}

SolveResult pcg(const LinearOperator& A, const Preconditioner& M,
                std::span<const value_t> b, std::span<value_t> x,
                const SolverOptions& opt) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("pcg: operator must be square");
  if (M.size() != A.nrows())
    throw std::invalid_argument("pcg: preconditioner size mismatch");
  if (b.size() != static_cast<std::size_t>(A.nrows()) || x.size() != b.size())
    throw std::invalid_argument("pcg: vector size mismatch");

  engine::ExecutionEngine* const eng = A.engine();
  const std::size_t n = b.size();
  std::vector<value_t> r(n), z(n), p(n), Ap(n);
  const double bnorm = nrm2(b, eng);
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  A.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  M.apply(r, z);
  copy(z, p);
  double rz = dot(r, z, eng);

  // Four vector passes per iteration besides M: p·Ap; the fused x/r update
  // with r·r; r·z; p = z + beta p.
  SolveResult result;
  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    A.apply(p, Ap);
    const double pAp = dot(p, Ap, eng);
    if (pAp <= 0.0) break;
    const double alpha = rz / pAp;
    const double rr = cg_update(alpha, p, Ap, x, r, eng);
    result.residual_norm = std::sqrt(rr) / bnorm;
    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
    M.apply(r, z);
    const double rz_new = dot(r, z, eng);
    xpby(z, rz_new / rz, p, eng);
    rz = rz_new;
  }
  return result;
}

}  // namespace spmvopt::solvers
