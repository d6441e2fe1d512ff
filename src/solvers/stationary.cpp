#include "solvers/stationary.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "solvers/blas1.hpp"

namespace spmvopt::solvers {

namespace {

std::vector<value_t> inverted_diagonal(const CsrMatrix& A) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("stationary: matrix must be square");
  std::vector<value_t> inv(static_cast<std::size_t>(A.nrows()), 0.0);
  for (index_t i = 0; i < A.nrows(); ++i) {
    value_t d = 0.0;
    for (index_t k = A.rowptr()[i]; k < A.rowptr()[i + 1]; ++k)
      if (A.colind()[k] == i) d = A.values()[k];
    if (d == 0.0)
      throw std::invalid_argument("stationary: zero diagonal at row " +
                                  std::to_string(i));
    inv[static_cast<std::size_t>(i)] = 1.0 / d;
  }
  return inv;
}

void check_system(const CsrMatrix& A, std::size_t b, std::size_t x) {
  if (b != static_cast<std::size_t>(A.nrows()) || x != b)
    throw std::invalid_argument("stationary: vector size mismatch");
}

}  // namespace

SolveResult jacobi(const CsrMatrix& A, std::span<const value_t> b,
                   std::span<value_t> x, value_t omega,
                   const SolverOptions& opt) {
  check_system(A, b.size(), x.size());
  if (omega <= 0.0 || omega > 1.0)
    throw std::invalid_argument("jacobi: omega must be in (0, 1]");
  const std::vector<value_t> inv_d = inverted_diagonal(A);
  const std::size_t n = b.size();
  const double bnorm = nrm2(b);
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  std::vector<value_t> r(n);
  SolveResult result;
  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    A.multiply(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    result.residual_norm = nrm2(r) / bnorm;
    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) x[i] += omega * inv_d[i] * r[i];
  }
  return result;
}

SolveResult gauss_seidel(const CsrMatrix& A, std::span<const value_t> b,
                         std::span<value_t> x, const SolverOptions& opt) {
  check_system(A, b.size(), x.size());
  const std::vector<value_t> inv_d = inverted_diagonal(A);
  const std::size_t n = b.size();
  const double bnorm = nrm2(b);
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  std::vector<value_t> r(n);
  SolveResult result;
  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    // One forward sweep, in place (uses updated x entries immediately).
    for (index_t i = 0; i < A.nrows(); ++i) {
      value_t sum = b[static_cast<std::size_t>(i)];
      for (index_t k = A.rowptr()[i]; k < A.rowptr()[i + 1]; ++k) {
        const index_t j = A.colind()[k];
        if (j != i) sum -= A.values()[k] * x[static_cast<std::size_t>(j)];
      }
      x[static_cast<std::size_t>(i)] = sum * inv_d[static_cast<std::size_t>(i)];
    }
    A.multiply(x, r);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    result.residual_norm = nrm2(r) / bnorm;
    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

SolveResult chebyshev(const LinearOperator& A, std::span<const value_t> b,
                      std::span<value_t> x, double lambda_min,
                      double lambda_max, const SolverOptions& opt,
                      int check_every) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("chebyshev: operator must be square");
  if (b.size() != static_cast<std::size_t>(A.nrows()) || x.size() != b.size())
    throw std::invalid_argument("chebyshev: vector size mismatch");
  if (!(0.0 < lambda_min && lambda_min < lambda_max))
    throw std::invalid_argument("chebyshev: need 0 < lambda_min < lambda_max");
  if (check_every < 1) throw std::invalid_argument("chebyshev: bad check_every");

  const std::size_t n = b.size();
  const double bnorm = nrm2(b, A.engine());
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  const double theta = 0.5 * (lambda_max + lambda_min);  // center
  const double delta = 0.5 * (lambda_max - lambda_min);  // half-width
  const double sigma1 = theta / delta;
  double rho = 1.0 / sigma1;

  std::vector<value_t> r(n), d(n), ad(n);
  A.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  for (std::size_t i = 0; i < n; ++i) d[i] = r[i] / theta;

  SolveResult result;
  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    axpy(1.0, d, x, A.engine());
    // r -= A d (the only SpMV; no inner products in the update).
    A.apply(d, ad);
    for (std::size_t i = 0; i < n; ++i) r[i] -= ad[i];

    const double rho_new = 1.0 / (2.0 * sigma1 - rho);
    const double c1 = rho_new * rho;
    const double c2 = 2.0 * rho_new / delta;
    for (std::size_t i = 0; i < n; ++i) d[i] = c1 * d[i] + c2 * r[i];
    rho = rho_new;

    if ((it + 1) % check_every == 0 || it + 1 == opt.max_iterations) {
      result.residual_norm = nrm2(r, A.engine()) / bnorm;
      if (result.residual_norm <= opt.rel_tolerance) {
        result.converged = true;
        return result;
      }
    }
  }
  result.residual_norm = nrm2(r, A.engine()) / bnorm;
  result.converged = result.residual_norm <= opt.rel_tolerance;
  return result;
}

}  // namespace spmvopt::solvers
