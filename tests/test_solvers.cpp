#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "gen/generators.hpp"
#include "solvers/blas1.hpp"
#include "solvers/krylov.hpp"
#include "solvers/pagerank.hpp"

namespace spmvopt::solvers {
namespace {

std::vector<value_t> manufactured_rhs(const CsrMatrix& a,
                                      std::vector<value_t>& x_true) {
  x_true = gen::test_vector(a.ncols(), 99);
  std::vector<value_t> b(static_cast<std::size_t>(a.nrows()));
  a.multiply(x_true, b);
  return b;
}

TEST(Blas1, DotAndNorm) {
  const std::vector<value_t> a{1.0, 2.0, 3.0};
  const std::vector<value_t> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(nrm2(std::vector<value_t>{3.0, 4.0}), 5.0);
}

TEST(Blas1, AxpyXpby) {
  std::vector<value_t> y{1.0, 1.0};
  axpy(2.0, std::vector<value_t>{1.0, 2.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
  xpby(std::vector<value_t>{1.0, 1.0}, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], 3.5);
}

TEST(Blas1, SizeMismatchThrows) {
  std::vector<value_t> y{1.0};
  EXPECT_THROW((void)dot(std::vector<value_t>{1.0, 2.0}, y),
               std::invalid_argument);
  EXPECT_THROW(axpy(1.0, std::vector<value_t>{1.0, 2.0}, y),
               std::invalid_argument);
}

// ------------------------------------------ vector operations (DESIGN.md §8)

/// Long enough that a two-member engine and the OpenMP fallback both split
/// the kernels; odd so the last slice has a lane tail.
constexpr std::size_t kSplitN = 4 * kVectorGrain + 13;

std::vector<value_t> vec(std::size_t n, std::uint64_t seed) {
  return gen::test_vector(static_cast<index_t>(n), seed);
}

TEST(Blas1, FusedKernelsEqualTheUnfusedUpdatesBitwise) {
  engine::ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::None});
  for (engine::ExecutionEngine* e : {static_cast<engine::ExecutionEngine*>(nullptr), &eng}) {
    for (const std::size_t n : {std::size_t{7}, kSplitN}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << (e ? " engine" : " fallback"));
      const std::vector<value_t> p = vec(n, 1), q = vec(n, 2);
      std::vector<value_t> x1 = vec(n, 3), r1 = vec(n, 4);
      std::vector<value_t> x2 = x1, r2 = r1;
      const double alpha = 0.37;

      const double rr = cg_update(alpha, p, q, x1, r1, e);
      axpy(alpha, p, x2, e);
      axpy(-alpha, q, r2, e);
      EXPECT_EQ(x1, x2);
      EXPECT_EQ(r1, r2);
      EXPECT_EQ(rr, dot(r2, r2, e));

      const double yz = axpy_dot(-1.5, p, r1, q, e);
      axpy(-1.5, p, r2, e);
      EXPECT_EQ(r1, r2);
      EXPECT_EQ(yz, dot(r2, q, e));
      const double yy = axpy_dot(0.25, q, r1, r1, e);  // z = y: ‖y‖²
      axpy(0.25, q, r2, e);
      EXPECT_EQ(r1, r2);
      EXPECT_EQ(yy, dot(r2, r2, e));

      std::vector<value_t> w1(n), w2 = p;
      const double ww = waxpy_nrm2sq(w1, p, -alpha, q, e);
      axpy(-alpha, q, w2, e);
      EXPECT_EQ(w1, w2);
      EXPECT_EQ(ww, dot(w2, w2, e));
    }
  }
}

TEST(Blas1, FallbackRunsInlineOnAnEnginePinnedCaller) {
  const std::size_t big = 64 * kVectorGrain;
  EXPECT_EQ(fallback_threads(2 * kVectorGrain - 1), 1);
  const int before = fallback_threads(big);
  {
    engine::ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::Compact});
    if (eng.pinned_cpus().empty()) GTEST_SKIP() << "the host refused pinning";
    // The default engine pinned this thread to one CPU: a team would crowd it.
    EXPECT_EQ(fallback_threads(big), 1);
    const std::vector<value_t> ones(big, 1.0);
    EXPECT_EQ(dot(ones, ones), static_cast<value_t>(big));
  }
  EXPECT_EQ(fallback_threads(big), before);  // the engine gave the CPUs back
}

/// An operator bound to a two-member engine, over a system long enough that
/// its vector kernels run as engine dispatches.
struct EngineBound {
  CsrMatrix a;
  engine::ExecutionEngine eng{{.nthreads = 2, .pin = PinPolicy::None}};
  optimize::OptimizedSpmv spmv;
  LinearOperator op;

  explicit EngineBound(CsrMatrix m)
      : a(std::move(m)),
        spmv(optimize::OptimizedSpmv::create(a, {}, eng)),
        op(LinearOperator::from_optimized(spmv)) {}
};

using Solve = SolveResult (*)(const LinearOperator&, std::span<const value_t>,
                              std::span<value_t>);

/// Solves twice on the engine-bound operator and once on from_csr: the two
/// engine solves agree bitwise (x and iteration count), and both operators
/// reach x_true within `tol`.
void expect_repeatable_and_matching(const EngineBound& s, Solve solve,
                                    double tol) {
  ASSERT_EQ(s.op.engine(), &s.eng);
  ASSERT_GE(static_cast<std::size_t>(s.a.nrows()), 2 * kVectorGrain);
  std::vector<value_t> x_true;
  const std::vector<value_t> b = manufactured_rhs(s.a, x_true);
  const auto run = [&](const LinearOperator& op) {
    std::vector<value_t> x(b.size(), 0.0);
    const SolveResult r = solve(op, b, x);
    EXPECT_TRUE(r.converged);
    return std::pair{r.iterations, x};
  };
  const std::uint64_t d0 = s.eng.dispatch_count();
  const auto first = run(s.op);
  const std::uint64_t per_solve = s.eng.dispatch_count() - d0;
  const auto second = run(s.op);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // More dispatches than matvecs: the vector kernels ran on the team.
  EXPECT_GT(per_solve, static_cast<std::uint64_t>(first.first) + 1);
  const auto csr = run(LinearOperator::from_csr(s.a));
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(first.second[i], x_true[i], tol);
    EXPECT_NEAR(csr.second[i], x_true[i], tol);
  }
}

TEST(EngineBoundSolve, CgIsRepeatableAndMatchesCsr) {
  expect_repeatable_and_matching(
      EngineBound(gen::stencil_3d_7pt(34, 34, 34)),
      [](const LinearOperator& op, std::span<const value_t> b,
         std::span<value_t> x) { return cg(op, b, x, {.rel_tolerance = 1e-10}); },
      1e-5);
}

TEST(EngineBoundSolve, BicgstabIsRepeatableAndMatchesCsr) {
  expect_repeatable_and_matching(
      EngineBound(gen::make_diagonally_dominant(
          gen::random_uniform(40000, 5, 17), 2.0)),
      [](const LinearOperator& op, std::span<const value_t> b,
         std::span<value_t> x) { return bicgstab(op, b, x); },
      1e-5);
}

TEST(EngineBoundSolve, GmresIsRepeatableAndMatchesCsr) {
  expect_repeatable_and_matching(
      EngineBound(gen::make_diagonally_dominant(
          gen::random_uniform(40000, 4, 23), 2.0)),
      [](const LinearOperator& op, std::span<const value_t> b,
         std::span<value_t> x) { return gmres(op, b, x, 30); },
      1e-5);
}

TEST(EngineBoundSolve, BlockCgIsRepeatableAndMatchesCsr) {
  const EngineBound s(gen::stencil_3d_7pt(34, 34, 34));
  const std::size_t n = static_cast<std::size_t>(s.a.nrows());
  constexpr int kRhs = 3;
  std::vector<value_t> X_true, B(n * kRhs);
  for (int r = 0; r < kRhs; ++r) {
    const std::vector<value_t> xt = vec(n, 40 + static_cast<std::uint64_t>(r));
    X_true.insert(X_true.end(), xt.begin(), xt.end());
    s.a.multiply(std::span(X_true).subspan(r * n, n),
                 std::span(B).subspan(r * n, n));
  }
  const auto run = [&](const LinearOperator& op) {
    std::vector<value_t> X(B.size(), 0.0);
    const auto res = block_cg(op, B, X, kRhs, {.rel_tolerance = 1e-10});
    std::vector<int> iters;
    for (const SolveResult& r : res) {
      EXPECT_TRUE(r.converged);
      iters.push_back(r.iterations);
    }
    return std::pair{iters, X};
  };
  const auto first = run(s.op);
  const auto second = run(s.op);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  const auto csr = run(LinearOperator::from_csr(s.a));
  for (std::size_t i = 0; i < B.size(); ++i) {
    EXPECT_NEAR(first.second[i], X_true[i], 1e-5);
    EXPECT_NEAR(csr.second[i], X_true[i], 1e-5);
  }
}

TEST(EngineBoundSolve, RawCallableWrapperKeepsDispatchesEqualToApplies) {
  // Vector operations reach an engine only through the operator they were
  // given: a plain callable around an engine-bound operator has no engine,
  // so the team serves exactly its matvecs.
  const EngineBound s(gen::stencil_3d_7pt(34, 34, 34));
  std::uint64_t applies = 0;
  const LinearOperator wrapped(s.a.nrows(), s.a.ncols(),
                               [&](const value_t* x, value_t* y) {
                                 ++applies;
                                 s.op.apply(x, y);
                               });
  EXPECT_EQ(wrapped.engine(), nullptr);
  const std::vector<value_t> b(static_cast<std::size_t>(s.a.nrows()), 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  const std::uint64_t d0 = s.eng.dispatch_count();
  const SolveResult r = cg(wrapped, b, x, {.max_iterations = 20});
  EXPECT_EQ(r.iterations, 20);
  EXPECT_EQ(applies, 21u);  // the initial residual plus one per iteration
  EXPECT_EQ(s.eng.dispatch_count() - d0, applies);
}

TEST(LinearOperator, FromCsrApplies) {
  const CsrMatrix a = gen::stencil_2d_5pt(6, 6);
  const LinearOperator op = LinearOperator::from_csr(a);
  const std::vector<value_t> x = gen::test_vector(a.ncols());
  std::vector<value_t> y1(static_cast<std::size_t>(a.nrows()));
  std::vector<value_t> y2(static_cast<std::size_t>(a.nrows()));
  op.apply(x, y1);
  a.multiply(x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(LinearOperator, ValidatesSizes) {
  const CsrMatrix a = gen::stencil_2d_5pt(4, 4);
  const LinearOperator op = LinearOperator::from_csr(a);
  std::vector<value_t> x(3), y(16);
  EXPECT_THROW(op.apply(x, y), std::invalid_argument);
}

TEST(Cg, SolvesPoissonToTolerance) {
  const CsrMatrix a = gen::stencil_2d_5pt(20, 20);
  std::vector<value_t> x_true;
  const std::vector<value_t> b = manufactured_rhs(a, x_true);
  std::vector<value_t> x(static_cast<std::size_t>(a.nrows()), 0.0);
  const SolveResult r = cg(LinearOperator::from_csr(a), b, x);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.residual_norm, 1e-8);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const CsrMatrix a = gen::stencil_2d_5pt(5, 5);
  std::vector<value_t> b(25, 0.0), x(25, 3.0);
  const SolveResult r = cg(LinearOperator::from_csr(a), b, x);
  EXPECT_TRUE(r.converged);
  for (value_t v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, ReportsNonConvergenceWithinBudget) {
  const CsrMatrix a = gen::stencil_2d_5pt(30, 30);
  std::vector<value_t> x_true;
  const std::vector<value_t> b = manufactured_rhs(a, x_true);
  std::vector<value_t> x(static_cast<std::size_t>(a.nrows()), 0.0);
  SolverOptions opt;
  opt.max_iterations = 3;
  const SolveResult r = cg(LinearOperator::from_csr(a), b, x, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3);
}

TEST(Bicgstab, SolvesNonsymmetricSystem) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(300, 5, 17), 2.0);
  std::vector<value_t> x_true;
  const std::vector<value_t> b = manufactured_rhs(a, x_true);
  std::vector<value_t> x(static_cast<std::size_t>(a.nrows()), 0.0);
  const SolveResult r = bicgstab(LinearOperator::from_csr(a), b, x);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(200, 4, 23), 2.0);
  std::vector<value_t> x_true;
  const std::vector<value_t> b = manufactured_rhs(a, x_true);
  std::vector<value_t> x(static_cast<std::size_t>(a.nrows()), 0.0);
  const SolveResult r = gmres(LinearOperator::from_csr(a), b, x, 30);
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-5);
}

TEST(Gmres, RestartSmallerThanKrylovDimStillConverges) {
  const CsrMatrix a =
      gen::make_diagonally_dominant(gen::random_uniform(150, 4, 29), 2.0);
  std::vector<value_t> x_true;
  const std::vector<value_t> b = manufactured_rhs(a, x_true);
  std::vector<value_t> x(static_cast<std::size_t>(a.nrows()), 0.0);
  const SolveResult r = gmres(LinearOperator::from_csr(a), b, x, 5);
  EXPECT_TRUE(r.converged);
}

TEST(Gmres, RejectsBadRestart) {
  const CsrMatrix a = gen::diagonal(4);
  std::vector<value_t> b(4, 1.0), x(4, 0.0);
  EXPECT_THROW((void)gmres(LinearOperator::from_csr(a), b, x, 0),
               std::invalid_argument);
}

TEST(Solvers, RejectRectangularOperator) {
  CooMatrix coo(2, 3);
  coo.add(0, 0, 1.0);
  coo.compress();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const LinearOperator op = LinearOperator::from_csr(a);
  std::vector<value_t> b(2, 1.0), x(2, 0.0);
  EXPECT_THROW((void)cg(op, b, x), std::invalid_argument);
}

TEST(PageRank, ScoresSumToOne) {
  const CsrMatrix g = gen::rmat(8, 6, 0.5, 0.2, 0.2, 3);
  const PageRankResult r = pagerank(g);
  EXPECT_TRUE(r.converged);
  const double total =
      std::accumulate(r.scores.begin(), r.scores.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (value_t s : r.scores) EXPECT_GE(s, 0.0);
}

TEST(PageRank, HubGetsHighestScore) {
  // Star graph: everyone links to node 0.
  CooMatrix coo(50, 50);
  for (index_t i = 1; i < 50; ++i) coo.add(i, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.compress();
  const PageRankResult r = pagerank(CsrMatrix::from_coo(coo));
  const auto argmax = static_cast<std::size_t>(
      std::max_element(r.scores.begin(), r.scores.end()) - r.scores.begin());
  EXPECT_EQ(argmax, 0u);
}

TEST(PageRank, HandlesDanglingNodes) {
  // Node 2 has no out-links; mass must be redistributed, sum preserved.
  CooMatrix coo(3, 3);
  coo.add(0, 1, 1.0);
  coo.add(1, 2, 1.0);
  coo.compress();
  const PageRankResult r = pagerank(CsrMatrix::from_coo(coo));
  const double total = std::accumulate(r.scores.begin(), r.scores.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PageRank, TransitionMatrixIsColumnStochastic) {
  const CsrMatrix g = gen::rmat(6, 4, 0.5, 0.2, 0.2, 5);
  const CsrMatrix p = transition_matrix(g);
  // Column sums of P = row sums of P^T: each non-dangling source column
  // sums to 1.  P[dst][src], so accumulate per colind.
  std::vector<double> colsum(static_cast<std::size_t>(p.ncols()), 0.0);
  for (index_t i = 0; i < p.nrows(); ++i)
    for (index_t j = p.rowptr()[i]; j < p.rowptr()[i + 1]; ++j)
      colsum[static_cast<std::size_t>(p.colind()[j])] += p.values()[j];
  for (index_t s = 0; s < g.nrows(); ++s) {
    if (g.row_nnz(s) == 0) continue;
    EXPECT_NEAR(colsum[static_cast<std::size_t>(s)], 1.0, 1e-9);
  }
}

TEST(PageRank, RejectsBadDamping) {
  const CsrMatrix g = gen::diagonal(4);
  PageRankOptions opt;
  opt.damping = 1.5;
  EXPECT_THROW((void)pagerank(g, opt), std::invalid_argument);
}

}  // namespace
}  // namespace spmvopt::solvers
