#include "solvers/krylov.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "solvers/blas1.hpp"

namespace spmvopt::solvers {

namespace {

void require_square_system(const LinearOperator& A, std::size_t b, std::size_t x) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("solver: operator must be square");
  if (b != static_cast<std::size_t>(A.nrows()) || x != b)
    throw std::invalid_argument("solver: vector size mismatch");
}

/// Per-iteration cancellation poll: None while live, else which way the
/// token tripped.
SolveAbort poll_cancel(const robust::CancelToken* tok) noexcept {
  if (tok == nullptr || !tok->cancelled()) return SolveAbort::None;
  return tok->why() == robust::CancelToken::Why::Cancelled
             ? SolveAbort::Cancelled
             : SolveAbort::DeadlineExceeded;
}

}  // namespace

SolveResult cg(const LinearOperator& A, std::span<const value_t> b,
               std::span<value_t> x, const SolverOptions& opt) {
  require_square_system(A, b.size(), x.size());
  engine::ExecutionEngine* const eng = A.engine();
  const std::size_t n = b.size();
  std::vector<value_t> r(n), p(n), Ap(n);

  const double bnorm = nrm2(b, eng);
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  A.apply(x, r);
  double rr = waxpy_nrm2sq(r, b, -1.0, r, eng);  // r = b - A x
  copy(r, p);

  // Three vector passes per iteration: p·Ap; the fused x/r update with r·r;
  // p = r + beta p.
  SolveResult result;
  for (int it = 0; it < opt.max_iterations; ++it) {
    if ((result.aborted = poll_cancel(opt.cancel)) != SolveAbort::None)
      return result;  // x = the last completed iterate
    result.iterations = it + 1;
    // Sizes were validated once at entry; the inner loop takes the raw
    // noexcept path (one engine dispatch per matvec when A is engine-bound).
    A.apply(p.data(), Ap.data());
    const double pAp = dot(p, Ap, eng);
    if (pAp <= 0.0) break;  // not SPD (or breakdown)
    const double alpha = rr / pAp;
    const double rr_new = cg_update(alpha, p, Ap, x, r, eng);
    result.residual_norm = std::sqrt(rr_new) / bnorm;
    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
    xpby(r, rr_new / rr, p, eng);  // p = r + beta p
    rr = rr_new;
  }
  result.residual_norm = std::sqrt(rr) / bnorm;
  return result;
}

std::vector<SolveResult> block_cg(const LinearOperator& A,
                                  std::span<const value_t> B,
                                  std::span<value_t> X, int nrhs,
                                  const SolverOptions& opt) {
  if (A.nrows() != A.ncols())
    throw std::invalid_argument("solver: operator must be square");
  if (nrhs <= 0)
    throw std::invalid_argument("block_cg: nrhs must be positive");
  const std::size_t n = static_cast<std::size_t>(A.nrows());
  if (B.size() != n * static_cast<std::size_t>(nrhs) || X.size() != B.size())
    throw std::invalid_argument("solver: vector size mismatch");

  engine::ExecutionEngine* const eng = A.engine();
  const std::size_t ns = static_cast<std::size_t>(nrhs);
  std::vector<value_t> R(n * ns), P(n * ns), AP(n * ns);
  std::vector<double> bnorm(ns), rr(ns);
  std::vector<SolveResult> results(ns);
  // live := still iterating.  Frozen systems keep p = 0, so the shared batch
  // matvec computes A*0 for them and every per-system update is a no-op —
  // one apply_many() per iteration regardless of how many systems remain.
  std::vector<char> live(ns, 1);

  const auto sys = [n](std::vector<value_t>& v, std::size_t r) {
    return std::span<value_t>(v.data() + r * n, n);
  };

  // R = B - A X (one batched matvec for every system's initial residual).
  A.apply_many(X.data(), R.data(), static_cast<index_t>(ns));
  for (std::size_t r = 0; r < ns; ++r) {
    const std::span<const value_t> br = B.subspan(r * n, n);
    bnorm[r] = nrm2(br, eng);
    if (bnorm[r] == 0.0) {
      fill(X.subspan(r * n, n), 0.0);
      fill(sys(R, r), 0.0);
      results[r].converged = true;
      live[r] = 0;
    } else {
      rr[r] = waxpy_nrm2sq(sys(R, r), br, -1.0, sys(R, r), eng);
    }
    copy(sys(R, r), sys(P, r));  // frozen systems copy a zero residual
  }

  std::size_t remaining = 0;
  for (char l : live) remaining += static_cast<std::size_t>(l);

  for (int it = 0; it < opt.max_iterations && remaining > 0; ++it) {
    const SolveAbort abort = poll_cancel(opt.cancel);
    if (abort != SolveAbort::None) {
      for (std::size_t r = 0; r < ns; ++r)
        if (live[r]) results[r].aborted = abort;
      return results;  // each x_r = its last completed iterate
    }
    A.apply_many(P.data(), AP.data(), static_cast<index_t>(ns));
    for (std::size_t r = 0; r < ns; ++r) {
      if (!live[r]) continue;
      results[r].iterations = it + 1;
      const std::span<value_t> p = sys(P, r);
      const std::span<value_t> ap = sys(AP, r);
      const double pAp = dot(p, ap, eng);
      if (pAp <= 0.0) {  // not SPD (or breakdown): freeze at current iterate
        results[r].residual_norm = std::sqrt(rr[r]) / bnorm[r];
        fill(p, 0.0);
        live[r] = 0;
        --remaining;
        continue;
      }
      const double alpha = rr[r] / pAp;
      const double rr_new =
          cg_update(alpha, p, ap, X.subspan(r * n, n), sys(R, r), eng);
      results[r].residual_norm = std::sqrt(rr_new) / bnorm[r];
      if (results[r].residual_norm <= opt.rel_tolerance) {
        results[r].converged = true;
        fill(p, 0.0);
        live[r] = 0;
        --remaining;
        continue;
      }
      xpby(sys(R, r), rr_new / rr[r], p, eng);  // p = r + beta p
      rr[r] = rr_new;
    }
  }
  for (std::size_t r = 0; r < ns; ++r)
    if (live[r]) results[r].residual_norm = std::sqrt(rr[r]) / bnorm[r];
  return results;
}

SolveResult bicgstab(const LinearOperator& A, std::span<const value_t> b,
                     std::span<value_t> x, const SolverOptions& opt) {
  require_square_system(A, b.size(), x.size());
  engine::ExecutionEngine* const eng = A.engine();
  const std::size_t n = b.size();
  std::vector<value_t> rv(n), r0v(n), pv(n), vv(n), sv(n), tv(n);
  const std::span<value_t> r(rv), r0(r0v), p(pv), v(vv), s(sv), t(tv);

  const double bnorm = nrm2(b, eng);
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  A.apply(x, r);
  double rho = waxpy_nrm2sq(r, b, -1.0, r, eng);  // r = b - A x; r0·r
  copy(r, r0);
  copy(r, p);

  // Six vector passes per iteration: r0·v; s = r - alpha v with s·s; t·t and
  // t·s; the x update; r = s - omega t with r·r and r0·r; the p update.
  SolveResult result;
  for (int it = 0; it < opt.max_iterations; ++it) {
    if ((result.aborted = poll_cancel(opt.cancel)) != SolveAbort::None)
      return result;  // x = the last completed iterate
    result.iterations = it + 1;
    if (rho == 0.0) break;
    A.apply(p.data(), v.data());
    const double alpha_den = dot(r0, v, eng);
    if (alpha_den == 0.0) break;
    const double alpha = rho / alpha_den;
    const double snorm = std::sqrt(waxpy_nrm2sq(s, r, -alpha, v, eng));
    if (snorm / bnorm <= opt.rel_tolerance) {
      axpy(alpha, p, x, eng);
      result.converged = true;
      result.residual_norm = snorm / bnorm;
      return result;
    }
    A.apply(s.data(), t.data());
    const auto [tt, ts] = for_each_index<2>(eng, n, [t, s](std::size_t i) {
      return std::array<double, 2>{t[i] * t[i], t[i] * s[i]};
    });
    if (tt == 0.0) break;
    const double omega = ts / tt;
    if (omega == 0.0) break;
    for_each_index<0>(eng, n, [x, p, s, alpha, omega](std::size_t i) {
      x[i] += alpha * p[i];
      x[i] += omega * s[i];
    });
    const value_t nomega = -omega;
    const auto [rr, rho_new] =
        for_each_index<2>(eng, n, [r, r0, s, t, nomega](std::size_t i) {
          r[i] = s[i] + nomega * t[i];
          return std::array<double, 2>{r[i] * r[i], r0[i] * r[i]};
        });
    result.residual_norm = std::sqrt(rr) / bnorm;
    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      return result;
    }
    const double beta = (rho_new / rho) * (alpha / omega);
    rho = rho_new;
    for_each_index<0>(eng, n, [p, r, v, beta, omega](std::size_t i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    });
  }
  return result;
}

SolveResult gmres(const LinearOperator& A, std::span<const value_t> b,
                  std::span<value_t> x, int restart, const SolverOptions& opt) {
  require_square_system(A, b.size(), x.size());
  if (restart < 1) throw std::invalid_argument("gmres: restart < 1");
  engine::ExecutionEngine* const eng = A.engine();
  const std::size_t n = b.size();
  const int m = restart;

  const double bnorm = nrm2(b, eng);
  if (bnorm == 0.0) {
    fill(x, 0.0);
    return {true, 0, 0.0};
  }

  // Krylov basis V (m+1 vectors) and Hessenberg H ((m+1) x m, column-major
  // per column j of size j+2), plus Givens rotations.
  std::vector<std::vector<value_t>> V(static_cast<std::size_t>(m) + 1,
                                      std::vector<value_t>(n));
  std::vector<std::vector<value_t>> H(static_cast<std::size_t>(m),
                                      std::vector<value_t>(static_cast<std::size_t>(m) + 1, 0.0));
  std::vector<value_t> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<value_t> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<value_t> g(static_cast<std::size_t>(m) + 1, 0.0);
  std::vector<value_t> w(n);

  SolveResult result;
  int total_iters = 0;

  while (total_iters < opt.max_iterations) {
    // r = b - A x;  V[0] = r / ||r||
    A.apply(x, w);
    const double beta = std::sqrt(waxpy_nrm2sq(V[0], b, -1.0, w, eng));
    result.residual_norm = beta / bnorm;
    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      result.iterations = total_iters;
      return result;
    }
    scal(1.0 / beta, V[0], eng);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int j = 0;
    for (; j < m && total_iters < opt.max_iterations; ++j, ++total_iters) {
      if ((result.aborted = poll_cancel(opt.cancel)) != SolveAbort::None)
        break;  // fall through to the update: x absorbs the j columns built
      // Arnoldi with modified Gram-Schmidt: each w -= h_i v_i pass also
      // takes the next projection w·v_{i+1}, and the last one ‖w‖².
      A.apply(V[static_cast<std::size_t>(j)], w);
      double h = dot(w, V[0], eng);
      for (int i = 0; i <= j; ++i) {
        H[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = h;
        const std::vector<value_t>& next =
            i < j ? V[static_cast<std::size_t>(i) + 1] : w;
        h = axpy_dot(-h, V[static_cast<std::size_t>(i)], w, next, eng);
      }
      const double hnext = std::sqrt(h);
      H[static_cast<std::size_t>(j)][static_cast<std::size_t>(j) + 1] = hnext;
      if (hnext != 0.0) {
        const double inv = 1.0 / hnext;
        const std::span<const value_t> ws(w);
        const std::span<value_t> vn(V[static_cast<std::size_t>(j) + 1]);
        for_each_index<0>(eng, n,
                          [ws, vn, inv](std::size_t k) { vn[k] = ws[k] * inv; });
      }

      // Apply previous Givens rotations to the new column.
      auto& hj = H[static_cast<std::size_t>(j)];
      for (int i = 0; i < j; ++i) {
        const double tmp = cs[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i)] +
                           sn[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i) + 1];
        hj[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] * hj[static_cast<std::size_t>(i) + 1];
        hj[static_cast<std::size_t>(i)] = tmp;
      }
      // New rotation annihilating H[j+1][j].
      const double denom = std::hypot(hj[static_cast<std::size_t>(j)],
                                      hj[static_cast<std::size_t>(j) + 1]);
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] = hj[static_cast<std::size_t>(j)] / denom;
        sn[static_cast<std::size_t>(j)] = hj[static_cast<std::size_t>(j) + 1] / denom;
      }
      hj[static_cast<std::size_t>(j)] = denom;
      hj[static_cast<std::size_t>(j) + 1] = 0.0;
      const double gtmp = cs[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j) + 1] =
          -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] = gtmp;

      result.residual_norm =
          std::abs(g[static_cast<std::size_t>(j) + 1]) / bnorm;
      if (result.residual_norm <= opt.rel_tolerance) {
        ++j;
        ++total_iters;
        break;
      }
    }

    // Solve the triangular system H y = g and update x.
    std::vector<value_t> yv(static_cast<std::size_t>(j), 0.0);
    for (int i = j - 1; i >= 0; --i) {
      double s = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < j; ++k)
        s -= H[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] *
             yv[static_cast<std::size_t>(k)];
      yv[static_cast<std::size_t>(i)] =
          s / H[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
    }
    for (int i = 0; i < j; ++i)
      axpy(yv[static_cast<std::size_t>(i)], V[static_cast<std::size_t>(i)], x,
           eng);

    if (result.residual_norm <= opt.rel_tolerance) {
      result.converged = true;
      result.iterations = total_iters;
      return result;
    }
    if (result.aborted != SolveAbort::None) {
      result.iterations = total_iters;
      return result;
    }
  }
  result.iterations = total_iters;
  return result;
}

}  // namespace spmvopt::solvers
