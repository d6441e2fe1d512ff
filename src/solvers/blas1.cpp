#include "solvers/blas1.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace spmvopt::solvers {

namespace {

void require_same(std::size_t a, std::size_t b) {
  if (a != b) throw std::invalid_argument("blas1: size mismatch");
}

/// Doubles per member partial: one cache line, so members never share one.
constexpr std::size_t kPartialStride = detail::kMaxSums;

/// Member `t` of `nt` owns the static slice [n*t/nt, n*(t+1)/nt).
std::size_t slice_edge(std::size_t n, int t, int nt) {
  return n * static_cast<std::size_t>(t) / static_cast<std::size_t>(nt);
}

/// Sums member partials in member order.
void reduce_partials(const std::vector<double>& part, int members, int nsums,
                     double* sums) {
  for (int k = 0; k < nsums; ++k) {
    double s = 0.0;
    for (int t = 0; t < members; ++t)
      s += part[static_cast<std::size_t>(t) * kPartialStride +
                static_cast<std::size_t>(k)];
    sums[k] = s;
  }
}

/// CPUs the calling thread may run on (a large number when unknown).
int calling_thread_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return 1 << 16;
}

struct EngineJob {
  detail::SpanFn fn;
  const void* ctx;
  std::size_t n;
  double* part;
};

}  // namespace

int fallback_threads(std::size_t n) {
#if defined(_OPENMP)
  const std::size_t by_grain = n / kVectorGrain;
  if (by_grain < 2) return 1;
  const int cap = std::min(omp_get_max_threads(), calling_thread_cpus());
  return static_cast<int>(std::min<std::size_t>(
      by_grain, static_cast<std::size_t>(std::max(cap, 1))));
#else
  (void)n;
  return 1;
#endif
}

namespace detail {

void run_spans(engine::ExecutionEngine* eng, std::size_t n, int nsums,
               SpanFn fn, const void* ctx, double* sums) {
  if (eng != nullptr) {
    const int team = eng->nthreads();
    if (n < kVectorGrain * static_cast<std::size_t>(team)) {
      fn(ctx, 0, n, sums);  // an engine-bound solve never opens OpenMP
      return;
    }
    std::vector<double> part(static_cast<std::size_t>(team) * kPartialStride);
    EngineJob job{fn, ctx, n, part.data()};
    eng->run_team(
        [](void* p, int tid, int nt) {
          const auto& j = *static_cast<const EngineJob*>(p);
          j.fn(j.ctx, slice_edge(j.n, tid, nt), slice_edge(j.n, tid + 1, nt),
               j.part + static_cast<std::size_t>(tid) * kPartialStride);
        },
        &job);
    reduce_partials(part, team, nsums, sums);
    return;
  }
  const int want = fallback_threads(n);
  if (want <= 1) {
    fn(ctx, 0, n, sums);
    return;
  }
#if defined(_OPENMP)
  std::vector<double> part(static_cast<std::size_t>(want) * kPartialStride);
  int members = 1;
#pragma omp parallel num_threads(want)
  {
    // The runtime may grant fewer threads than asked; slice by what it gave.
    const int tid = omp_get_thread_num();
    const int nt = omp_get_num_threads();
    if (tid == 0) members = nt;
    fn(ctx, slice_edge(n, tid, nt), slice_edge(n, tid + 1, nt),
       part.data() + static_cast<std::size_t>(tid) * kPartialStride);
  }
  reduce_partials(part, members, nsums, sums);
#endif
}

}  // namespace detail

value_t dot(std::span<const value_t> a, std::span<const value_t> b,
            engine::ExecutionEngine* eng) {
  require_same(a.size(), b.size());
  return for_each_index<1>(eng, a.size(), [a, b](std::size_t i) {
    return std::array<double, 1>{a[i] * b[i]};
  })[0];
}

value_t nrm2(std::span<const value_t> a, engine::ExecutionEngine* eng) {
  return std::sqrt(dot(a, a, eng));
}

void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y,
          engine::ExecutionEngine* eng) {
  require_same(x.size(), y.size());
  for_each_index<0>(eng, x.size(),
                    [alpha, x, y](std::size_t i) { y[i] += alpha * x[i]; });
}

void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y,
          engine::ExecutionEngine* eng) {
  require_same(x.size(), y.size());
  for_each_index<0>(eng, x.size(),
                    [x, beta, y](std::size_t i) { y[i] = x[i] + beta * y[i]; });
}

void scal(value_t alpha, std::span<value_t> x, engine::ExecutionEngine* eng) {
  for_each_index<0>(eng, x.size(), [alpha, x](std::size_t i) { x[i] *= alpha; });
}

void copy(std::span<const value_t> src, std::span<value_t> dst) {
  require_same(src.size(), dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

void fill(std::span<value_t> x, value_t v) {
  std::fill(x.begin(), x.end(), v);
}

value_t cg_update(value_t alpha, std::span<const value_t> p,
                  std::span<const value_t> q, std::span<value_t> x,
                  std::span<value_t> r, engine::ExecutionEngine* eng) {
  require_same(p.size(), q.size());
  require_same(p.size(), x.size());
  require_same(p.size(), r.size());
  const value_t nalpha = -alpha;
  return for_each_index<1>(eng, p.size(), [=](std::size_t i) {
    x[i] += alpha * p[i];
    r[i] += nalpha * q[i];
    return std::array<double, 1>{r[i] * r[i]};
  })[0];
}

value_t axpy_dot(value_t alpha, std::span<const value_t> x,
                 std::span<value_t> y, std::span<const value_t> z,
                 engine::ExecutionEngine* eng) {
  require_same(x.size(), y.size());
  require_same(x.size(), z.size());
  return for_each_index<1>(eng, x.size(), [=](std::size_t i) {
    y[i] += alpha * x[i];
    return std::array<double, 1>{y[i] * z[i]};
  })[0];
}

value_t waxpy_nrm2sq(std::span<value_t> w, std::span<const value_t> x,
                     value_t alpha, std::span<const value_t> y,
                     engine::ExecutionEngine* eng) {
  require_same(w.size(), x.size());
  require_same(w.size(), y.size());
  return for_each_index<1>(eng, w.size(), [=](std::size_t i) {
    w[i] = x[i] + alpha * y[i];
    return std::array<double, 1>{w[i] * w[i]};
  })[0];
}

}  // namespace spmvopt::solvers
