// Dense level-1 kernels the Krylov solvers are built from (DESIGN.md §8,
// "Solver vector operations").
//
// Every kernel is a body over a span [begin,end) of the vectors, run by one
// of exactly two executors:
//   * engine executor — when an engine is given and each team member would
//     get at least kVectorGrain elements: one run_team dispatch over static
//     slices;
//   * fallback executor — otherwise: inline on the calling thread when fewer
//     than two threads' worth of grain remain, else one OpenMP region whose
//     team is capped by the calling thread's CPU affinity (fallback_threads).
// An engine-bound solve therefore never opens an OpenMP team, and a caller
// pinned to one CPU runs the body directly instead of crowding a team onto
// that CPU.  Reductions write one partial per member and sum the partials in
// member order, so every result depends only on n and the team size.
//
// The fused kernels (cg_update, axpy_dot, ...) do in one pass what the
// solvers used to do in two or three, and equal the unfused sequence bitwise.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "engine/execution_engine.hpp"
#include "support/types.hpp"

namespace spmvopt::solvers {

/// Elements per thread below which a parallel vector kernel does not pay for
/// its dispatch (sized from bench_engine's dispatch costs, DESIGN.md §8).
inline constexpr std::size_t kVectorGrain = 16384;

/// Team size the fallback executor picks for an n-element kernel on the
/// calling thread: 1 below two grains, else min(n / kVectorGrain, OpenMP's
/// thread limit, CPUs the calling thread may run on).
[[nodiscard]] int fallback_threads(std::size_t n);

namespace detail {
/// Most sums one kernel may reduce: one cache line of member partials.
inline constexpr std::size_t kMaxSums = 8;

/// Type-erased span body: runs [begin,end) and writes its partial sums.
using SpanFn = void (*)(const void* ctx, std::size_t begin, std::size_t end,
                        double* sums);
/// The two executors; `sums` receives `nsums` member-ordered totals.
void run_spans(engine::ExecutionEngine* eng, std::size_t n, int nsums,
               SpanFn fn, const void* ctx, double* sums);

/// f(i) updates element i and returns its K addends; they accumulate in four
/// interleaved lanes (lane = (i - begin) mod 4) combined as (0+1)+(2+3), so
/// every kernel sums a given span in the same order.
template <std::size_t K, class F>
std::array<double, K> lane_sums(std::size_t b, std::size_t e, F&& f) {
  std::array<std::array<double, K>, 4> acc{};
  std::size_t i = b;
  for (; i + 4 <= e; i += 4)
    for (std::size_t l = 0; l < 4; ++l) {
      const std::array<double, K> v = f(i + l);
      for (std::size_t k = 0; k < K; ++k) acc[l][k] += v[k];
    }
  for (std::size_t l = 0; i < e; ++i, ++l) {
    const std::array<double, K> v = f(i);
    for (std::size_t k = 0; k < K; ++k) acc[l][k] += v[k];
  }
  std::array<double, K> out;
  for (std::size_t k = 0; k < K; ++k)
    out[k] = (acc[0][k] + acc[1][k]) + (acc[2][k] + acc[3][k]);
  return out;
}
}  // namespace detail

/// Runs `f(i)` for every i in [0, n) on the executor `eng` selects and
/// returns the K sums of its addends (K = 0: a pure update).  `f` must only
/// touch element i of its vectors.
template <std::size_t K, class F>
std::array<double, K> for_each_index(engine::ExecutionEngine* eng,
                                     std::size_t n, const F& f) {
  static_assert(K <= detail::kMaxSums);
  const detail::SpanFn fn = [](const void* ctx, std::size_t b, std::size_t e,
                               double* sums) {
    const F& body = *static_cast<const F*>(ctx);
    if constexpr (K == 0) {
      for (std::size_t i = b; i < e; ++i) body(i);
    } else {
      const std::array<double, K> s = detail::lane_sums<K>(b, e, body);
      for (std::size_t k = 0; k < K; ++k) sums[k] = s[k];
    }
  };
  std::array<double, K> out{};
  detail::run_spans(eng, n, static_cast<int>(K), fn, &f, out.data());
  return out;
}

// Plain kernels.  `eng` is the operator's engine (LinearOperator::engine());
// null selects the fallback executor.
[[nodiscard]] value_t dot(std::span<const value_t> a, std::span<const value_t> b,
                          engine::ExecutionEngine* eng = nullptr);
[[nodiscard]] value_t nrm2(std::span<const value_t> a,
                           engine::ExecutionEngine* eng = nullptr);
/// y += alpha * x
void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y,
          engine::ExecutionEngine* eng = nullptr);
/// y = x + beta * y   (the CG/BiCGSTAB "xpby" update)
void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y,
          engine::ExecutionEngine* eng = nullptr);
void scal(value_t alpha, std::span<value_t> x,
          engine::ExecutionEngine* eng = nullptr);
void copy(std::span<const value_t> src, std::span<value_t> dst);
void fill(std::span<value_t> x, value_t v);

// Fused kernels: one pass each, bitwise equal to the unfused sequence named.
/// x += alpha p;  r += -alpha q;  returns r·r
///   (= axpy(alpha,p,x); axpy(-alpha,q,r); dot(r,r): the CG/PCG update).
[[nodiscard]] value_t cg_update(value_t alpha, std::span<const value_t> p,
                                std::span<const value_t> q,
                                std::span<value_t> x, std::span<value_t> r,
                                engine::ExecutionEngine* eng = nullptr);
/// y += alpha x;  returns y·z   (= axpy(alpha,x,y); dot(y,z)).  One modified
/// Gram–Schmidt step fused with the next projection; z = y gives ‖y‖².
[[nodiscard]] value_t axpy_dot(value_t alpha, std::span<const value_t> x,
                               std::span<value_t> y,
                               std::span<const value_t> z,
                               engine::ExecutionEngine* eng = nullptr);
/// w = x + alpha y;  returns w·w.
[[nodiscard]] value_t waxpy_nrm2sq(std::span<value_t> w,
                                   std::span<const value_t> x, value_t alpha,
                                   std::span<const value_t> y,
                                   engine::ExecutionEngine* eng = nullptr);

}  // namespace spmvopt::solvers
