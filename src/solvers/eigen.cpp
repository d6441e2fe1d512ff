#include "solvers/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "solvers/blas1.hpp"
#include "support/rng.hpp"

namespace spmvopt::solvers {

namespace {

std::vector<value_t> random_unit_vector(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const double norm = nrm2(v);
  scal(1.0 / norm, v);
  return v;
}

}  // namespace

EigenResult power_method(const LinearOperator& A, const EigenOptions& opt,
                         std::uint64_t seed) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("power_method: operator must be square");
  const auto n = static_cast<std::size_t>(A.nrows());

  EigenResult result;
  result.eigenvector = random_unit_vector(A.nrows(), seed);
  std::vector<value_t> next(n);
  double lambda_prev = 0.0;

  for (int it = 0; it < opt.max_iterations; ++it) {
    result.iterations = it + 1;
    A.apply(result.eigenvector, next);
    // Rayleigh quotient with the (unit) current vector.
    result.eigenvalue = dot(result.eigenvector, next, A.engine());
    const double norm = nrm2(next, A.engine());
    if (norm == 0.0) {  // hit the null space: eigenvalue 0
      result.eigenvalue = 0.0;
      result.converged = true;
      return result;
    }
    scal(1.0 / norm, next, A.engine());
    result.eigenvector.swap(next);
    if (it > 0 && std::abs(result.eigenvalue - lambda_prev) <=
                      opt.tolerance * std::max(1.0, std::abs(result.eigenvalue))) {
      result.converged = true;
      return result;
    }
    lambda_prev = result.eigenvalue;
  }
  return result;
}

std::vector<double> tridiag_eigenvalues(std::span<const double> diag,
                                        std::span<const double> offdiag,
                                        double tol) {
  const std::size_t n = diag.size();
  if (n == 0) throw std::invalid_argument("tridiag_eigenvalues: empty");
  if (offdiag.size() + 1 != n)
    throw std::invalid_argument("tridiag_eigenvalues: offdiag size != n-1");

  // Gershgorin bounds.
  double lo = diag[0], hi = diag[0];
  for (std::size_t i = 0; i < n; ++i) {
    double r = 0.0;
    if (i > 0) r += std::abs(offdiag[i - 1]);
    if (i + 1 < n) r += std::abs(offdiag[i]);
    lo = std::min(lo, diag[i] - r);
    hi = std::max(hi, diag[i] + r);
  }

  // Sturm count: number of eigenvalues strictly below x.
  auto count_below = [&](double x) {
    int count = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double off2 = i > 0 ? offdiag[i - 1] * offdiag[i - 1] : 0.0;
      d = diag[i] - x - (d != 0.0 ? off2 / d : off2 / 1e-300);
      if (d < 0.0) ++count;
    }
    return count;
  };

  std::vector<double> eigs(n);
  for (std::size_t k = 0; k < n; ++k) {
    double a = lo, b = hi;
    while (b - a > tol * std::max(1.0, std::abs(a) + std::abs(b))) {
      const double mid = 0.5 * (a + b);
      if (count_below(mid) > static_cast<int>(k))
        b = mid;
      else
        a = mid;
    }
    eigs[k] = 0.5 * (a + b);
  }
  return eigs;
}

LanczosResult lanczos_extreme(const LinearOperator& A, int steps,
                              std::uint64_t seed) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("lanczos_extreme: operator must be square");
  if (steps < 1) throw std::invalid_argument("lanczos_extreme: steps < 1");
  const auto n = static_cast<std::size_t>(A.nrows());
  steps = std::min<int>(steps, A.nrows());

  std::vector<std::vector<value_t>> V;
  V.push_back(random_unit_vector(A.nrows(), seed));
  std::vector<double> alpha, beta;
  std::vector<value_t> w(n);
  engine::ExecutionEngine* const eng = A.engine();

  for (int j = 0; j < steps; ++j) {
    A.apply(V[static_cast<std::size_t>(j)], w);
    if (j > 0)
      axpy(-beta[static_cast<std::size_t>(j) - 1],
           V[static_cast<std::size_t>(j) - 1], w, eng);
    const double a = dot(w, V[static_cast<std::size_t>(j)], eng);
    alpha.push_back(a);
    axpy(-a, V[static_cast<std::size_t>(j)], w, eng);
    // Full reorthogonalization (steps are small; robustness over speed).
    for (const auto& v : V) axpy(-dot(w, v, eng), v, w, eng);
    const double b = nrm2(w, eng);
    if (b < 1e-12) break;  // invariant subspace found
    beta.push_back(b);
    scal(1.0 / b, w, eng);
    V.push_back(w);
  }

  // Tridiagonal sizes: |alpha| = m needs |beta| = m-1.  After a full loop
  // beta has one extra (pushed on the last step); after an early break it is
  // already m-1.
  while (beta.size() >= alpha.size()) beta.pop_back();
  const std::vector<double> ritz = tridiag_eigenvalues(alpha, beta);

  LanczosResult out;
  out.lambda_min = ritz.front();
  out.lambda_max = ritz.back();
  out.iterations = static_cast<int>(alpha.size());
  return out;
}

}  // namespace spmvopt::solvers
