#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "gen/generators.hpp"
#include "solvers/blas1.hpp"
#include "solvers/preconditioner.hpp"

namespace spmvopt::solvers {
namespace {

std::vector<value_t> rhs_for(const CsrMatrix& a, std::vector<value_t>& x_true) {
  x_true = gen::test_vector(a.ncols(), 31);
  std::vector<value_t> b(static_cast<std::size_t>(a.nrows()));
  a.multiply(x_true, b);
  return b;
}

TEST(Preconditioner, IdentityIsCopy) {
  IdentityPreconditioner m(3);
  const std::vector<value_t> r{1.0, -2.0, 3.0};
  std::vector<value_t> z(3);
  m.apply(r, z);
  EXPECT_EQ(z, r);
}

TEST(Preconditioner, JacobiDividesByDiagonal) {
  const CsrMatrix a = gen::diagonal(4, 2.0);
  JacobiPreconditioner m(a);
  const std::vector<value_t> r{2.0, 4.0, 6.0, 8.0};
  std::vector<value_t> z(4);
  m.apply(r, z);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(z[i], r[i] / 2.0);
}

TEST(Preconditioner, JacobiRejectsZeroDiagonal) {
  CooMatrix coo(2, 2);
  coo.add(0, 1, 1.0);  // row 0 has no diagonal entry
  coo.add(1, 1, 1.0);
  coo.compress();
  EXPECT_THROW(JacobiPreconditioner(CsrMatrix::from_coo(coo)),
               std::invalid_argument);
}

TEST(Preconditioner, SsorOnDiagonalMatrixIsExact) {
  // For A = D the SSOR application must be exactly D^{-1} r (ω = 1).
  const CsrMatrix a = gen::diagonal(5, 4.0);
  SsorPreconditioner m(a, 1.0);
  const std::vector<value_t> r{4.0, 8.0, 12.0, 16.0, 20.0};
  std::vector<value_t> z(5);
  m.apply(r, z);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(z[i], r[i] / 4.0, 1e-12);
}

TEST(Preconditioner, SsorRejectsBadOmega) {
  const CsrMatrix a = gen::diagonal(3);
  EXPECT_THROW(SsorPreconditioner(a, 0.0), std::invalid_argument);
  EXPECT_THROW(SsorPreconditioner(a, 2.0), std::invalid_argument);
}

TEST(Preconditioner, ApplySizeChecked) {
  JacobiPreconditioner m(gen::diagonal(4));
  std::vector<value_t> r(3), z(4);
  EXPECT_THROW(m.apply(r, z), std::invalid_argument);
}

TEST(Pcg, MatchesCgWithIdentity) {
  const CsrMatrix a = gen::stencil_2d_5pt(15, 15);
  std::vector<value_t> x_true;
  const auto b = rhs_for(a, x_true);
  const auto op = LinearOperator::from_csr(a);

  std::vector<value_t> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const auto plain = cg(op, b, x1);
  const auto pre = pcg(op, IdentityPreconditioner(a.nrows()), b, x2);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(pre.converged);
  EXPECT_EQ(pre.iterations, plain.iterations);  // identical trajectory
}

TEST(Pcg, JacobiReducesIterationsOnScaledProblem) {
  // Symmetrically scaled 1-D Laplacian A' = S A S with s_i spanning three
  // orders of magnitude: still SPD, but badly conditioned in a way that
  // diagonal (Jacobi) preconditioning largely undoes.
  const index_t n = 400;
  auto s = [&](index_t i) {
    return std::pow(10.0, 3.0 * static_cast<double>(i) / n);
  };
  CooMatrix coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0 * s(i) * s(i));
    if (i > 0) coo.add(i, i - 1, -1.0 * s(i) * s(i - 1));
    if (i < n - 1) coo.add(i, i + 1, -1.0 * s(i) * s(i + 1));
  }
  coo.compress();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  std::vector<value_t> x_true;
  const auto b = rhs_for(a, x_true);
  const auto op = LinearOperator::from_csr(a);

  std::vector<value_t> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const auto plain = cg(op, b, x1);
  const auto jacobi = pcg(op, JacobiPreconditioner(a), b, x2);
  ASSERT_TRUE(jacobi.converged);
  EXPECT_LT(jacobi.iterations, plain.iterations);
  for (std::size_t i = 0; i < x2.size(); ++i)
    EXPECT_NEAR(x2[i], x_true[i], 1e-4 * std::abs(x_true[i]) + 1e-6);
}

TEST(Pcg, SsorReducesIterationsOnPoisson) {
  const CsrMatrix a = gen::stencil_2d_5pt(30, 30);
  std::vector<value_t> x_true;
  const auto b = rhs_for(a, x_true);
  const auto op = LinearOperator::from_csr(a);

  std::vector<value_t> x1(b.size(), 0.0), x2(b.size(), 0.0);
  const auto plain = cg(op, b, x1);
  const auto ssor = pcg(op, SsorPreconditioner(a, 1.5), b, x2);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(ssor.converged);
  // The §IV-D point: preconditioning cuts the iteration count sharply.
  EXPECT_LT(ssor.iterations, plain.iterations / 2);
  for (std::size_t i = 0; i < x2.size(); ++i)
    EXPECT_NEAR(x2[i], x_true[i], 1e-5);
}

TEST(Pcg, ValidatesSizes) {
  const CsrMatrix a = gen::stencil_2d_5pt(4, 4);
  const auto op = LinearOperator::from_csr(a);
  IdentityPreconditioner wrong(7);
  std::vector<value_t> b(16, 1.0), x(16, 0.0);
  EXPECT_THROW((void)pcg(op, wrong, b, x), std::invalid_argument);
}

TEST(Pcg, ZeroRhs) {
  const CsrMatrix a = gen::stencil_2d_5pt(4, 4);
  const auto op = LinearOperator::from_csr(a);
  std::vector<value_t> b(16, 0.0), x(16, 5.0);
  const auto r = pcg(op, JacobiPreconditioner(a), b, x);
  EXPECT_TRUE(r.converged);
  for (value_t v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Pcg, EngineBoundSolveIsRepeatableAndMatchesCsr) {
  // Long enough (≥ 2 grains) that PCG's vector kernels run as dispatches on
  // the two-member engine; their member-ordered reductions make the solve
  // bitwise repeatable.
  const CsrMatrix a = gen::stencil_3d_7pt(34, 34, 34);
  ASSERT_GE(static_cast<std::size_t>(a.nrows()), 2 * kVectorGrain);
  engine::ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::None});
  const auto spmv = optimize::OptimizedSpmv::create(a, {}, eng);
  const auto op = LinearOperator::from_optimized(spmv);
  ASSERT_EQ(op.engine(), &eng);
  std::vector<value_t> x_true;
  const auto b = rhs_for(a, x_true);
  const JacobiPreconditioner m(a);
  const auto run = [&](const LinearOperator& A) {
    std::vector<value_t> x(b.size(), 0.0);
    const auto r = pcg(A, m, b, x, {.rel_tolerance = 1e-10});
    EXPECT_TRUE(r.converged);
    return std::pair{r.iterations, x};
  };
  const std::uint64_t d0 = eng.dispatch_count();
  const auto first = run(op);
  EXPECT_GT(eng.dispatch_count() - d0,
            static_cast<std::uint64_t>(first.first) + 1);
  const auto second = run(op);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  const auto csr = run(LinearOperator::from_csr(a));
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(first.second[i], x_true[i], 1e-5);
    EXPECT_NEAR(csr.second[i], x_true[i], 1e-5);
  }
}

}  // namespace
}  // namespace spmvopt::solvers
