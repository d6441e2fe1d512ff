// Benchmark inputs and the output checks, both independent of the library.
//
// The matrices are generated here from the run's seed (the library's gen/
// module is not used, so a change there cannot change what is measured),
// and every product the library returns is compared with a long-double CSR
// loop written here, under the per-row bound c·u·Σ|a_ij||x_j| with
// c = row length + 2 and u the unit roundoff of the value or wire precision.
#pragma once

#include <spmvopt/spmvopt.hpp>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

using spmvopt::CsrMatrix;
using spmvopt::index_t;
using spmvopt::value_t;

/// splitmix64: small, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  index_t below(index_t n) {
    return static_cast<index_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

/// Appends rows of sorted, distinct column indices and builds a CsrMatrix.
class RowBuilder {
 public:
  RowBuilder(index_t nrows, index_t ncols, std::size_t nnz_hint)
      : nrows_(nrows), ncols_(ncols) {
    rp_.reserve(static_cast<std::size_t>(nrows) + 1);
    rp_.push_back(0);
    ci_.reserve(nnz_hint);
    va_.reserve(nnz_hint);
  }
  void add(index_t col, value_t v) {
    ci_.push_back(col);
    va_.push_back(v);
  }
  void end_row() { rp_.push_back(static_cast<index_t>(ci_.size())); }
  CsrMatrix build() {
    return CsrMatrix(nrows_, ncols_, std::move(rp_), std::move(ci_),
                     std::move(va_));
  }

 private:
  index_t nrows_, ncols_;
  spmvopt::aligned_vector<index_t> rp_, ci_;
  spmvopt::aligned_vector<value_t> va_;
};

/// 3-D 7-point Poisson operator on a g×g×g grid (SPD).
inline CsrMatrix poisson3d(index_t g) {
  const index_t n = g * g * g;
  RowBuilder b(n, n, static_cast<std::size_t>(n) * 7);
  for (index_t z = 0; z < g; ++z)
    for (index_t y = 0; y < g; ++y)
      for (index_t x = 0; x < g; ++x) {
        const index_t i = (z * g + y) * g + x;
        if (z > 0) b.add(i - g * g, -1.0);
        if (y > 0) b.add(i - g, -1.0);
        if (x > 0) b.add(i - 1, -1.0);
        b.add(i, 6.0);
        if (x + 1 < g) b.add(i + 1, -1.0);
        if (y + 1 < g) b.add(i + g, -1.0);
        if (z + 1 < g) b.add(i + g * g, -1.0);
        b.end_row();
      }
  return b.build();
}

/// Symmetric band of half-width `hb` with seeded negative off-diagonals and
/// a diagonal `margin` above the row's absolute off-diagonal sum (SPD).
inline CsrMatrix banded_spd(index_t n, index_t hb, value_t margin, Rng& rng) {
  std::vector<value_t> up(static_cast<std::size_t>(n) * hb);  // (i, i+d+1)
  for (auto& v : up) v = -rng.uniform(0.1, 1.0);
  const auto off = [&](index_t i, index_t d) {
    return up[static_cast<std::size_t>(i) * hb + static_cast<std::size_t>(d - 1)];
  };
  RowBuilder b(n, n, static_cast<std::size_t>(n) * (2 * hb + 1));
  for (index_t i = 0; i < n; ++i) {
    value_t diag = margin;
    for (index_t d = hb; d >= 1; --d)
      if (i - d >= 0) {
        b.add(i - d, off(i - d, d));
        diag -= off(i - d, d);
      }
    for (index_t d = 1; d <= hb && i + d < n; ++d) diag -= off(i, d);
    b.add(i, diag);
    for (index_t d = 1; d <= hb && i + d < n; ++d) b.add(i + d, off(i, d));
    b.end_row();
  }
  return b.build();
}

/// ML stand-in: `k` distinct uniformly random columns per row, so nearly
/// every access to x leaves the previous cache line.
inline CsrMatrix random_uniform(index_t n, int k, Rng& rng) {
  RowBuilder b(n, n, static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  std::vector<index_t> cols;
  for (index_t i = 0; i < n; ++i) {
    cols.clear();
    while (static_cast<int>(cols.size()) < k) {
      const index_t c = rng.below(n);
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) cols.push_back(c);
    }
    std::sort(cols.begin(), cols.end());
    for (index_t c : cols) b.add(c, rng.uniform(-1.0, 1.0));
    b.end_row();
  }
  return b.build();
}

/// IMB stand-in: a narrow contiguous band plus `ndense` rows holding one
/// long contiguous run each, so a few rows carry a large share of the
/// nonzeros while x is still read line by line.
inline CsrMatrix few_dense_rows(index_t n, int ndense, index_t dense_len,
                                Rng& rng) {
  std::vector<index_t> dense_start(static_cast<std::size_t>(n), -1);
  for (int d = 0; d < ndense; ++d)
    dense_start[static_cast<std::size_t>(rng.below(n))] =
        rng.below(n - dense_len);
  RowBuilder b(n, n, static_cast<std::size_t>(n) * 4 +
                         static_cast<std::size_t>(ndense) * dense_len);
  for (index_t i = 0; i < n; ++i) {
    const index_t s = dense_start[static_cast<std::size_t>(i)];
    const index_t lo = s >= 0 ? s : std::max<index_t>(0, i - 1);
    const index_t hi = s >= 0 ? s + dense_len : std::min<index_t>(n, i + 3);
    for (index_t c = lo; c < hi; ++c) b.add(c, rng.uniform(-1.0, 1.0));
    b.end_row();
  }
  return b.build();
}

/// CMP stand-in: groups of 8 rows share one dense window of `width`
/// consecutive columns near the diagonal (dense blocks, no irregular reads).
inline CsrMatrix block_dense(index_t n, index_t width, Rng& rng) {
  RowBuilder b(n, n, static_cast<std::size_t>(n) * width);
  index_t start = 0;
  for (index_t i = 0; i < n; ++i) {
    if (i % 8 == 0)
      start = std::clamp<index_t>(i - width / 2 + rng.below(8), 0, n - width);
    for (index_t c = start; c < start + width; ++c)
      b.add(c, rng.uniform(-1.0, 1.0));
    b.end_row();
  }
  return b.build();
}

/// MB stand-in: each row a contiguous run of 12..20 columns around the
/// diagonal — streaming reads of x, so DRAM bandwidth is the only limit
/// once the matrix outgrows the LLC.
inline CsrMatrix band_rows(index_t n, Rng& rng) {
  RowBuilder b(n, n, static_cast<std::size_t>(n) * 16);
  for (index_t i = 0; i < n; ++i) {
    const index_t len = 12 + rng.below(9);
    const index_t lo = std::clamp<index_t>(i - len / 2, 0, n - len);
    for (index_t c = lo; c < lo + len; ++c) b.add(c, rng.uniform(-1.0, 1.0));
    b.end_row();
  }
  return b.build();
}

inline std::vector<value_t> random_vector(std::size_t n, Rng& rng) {
  std::vector<value_t> v(n);
  for (auto& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

/// The product y = A x computed in long double, with the per-row error
/// scale (row length + 2)·Σ|a_ij||x_j| that a checked output must respect
/// once multiplied by the unit roundoff.
struct Reference {
  std::vector<long double> y;
  std::vector<double> scale;
};

inline Reference reference_product(const CsrMatrix& A, const value_t* x) {
  Reference r;
  const auto n = static_cast<std::size_t>(A.nrows());
  r.y.resize(n);
  r.scale.resize(n);
  const index_t* rp = A.rowptr();
  const index_t* ci = A.colind();
  const value_t* va = A.values();
  for (std::size_t i = 0; i < n; ++i) {
    long double s = 0.0L, abs_s = 0.0L;
    for (index_t j = rp[i]; j < rp[i + 1]; ++j) {
      const long double p = static_cast<long double>(va[j]) * x[ci[j]];
      s += p;
      abs_s += std::fabs(p);
    }
    r.y[i] = s;
    r.scale[i] = static_cast<double>(abs_s) * (rp[i + 1] - rp[i] + 2);
  }
  return r;
}

/// Unit roundoff of binary64 and binary32.
inline constexpr double kU64 = 0x1.0p-53;
inline constexpr double kU32 = 0x1.0p-24;

/// First row where `y` leaves the bound, or -1 when every row is within it.
inline std::ptrdiff_t first_violation(const value_t* y, const Reference& r,
                                      double u) {
  for (std::size_t i = 0; i < r.y.size(); ++i) {
    const long double err = std::fabs(static_cast<long double>(y[i]) - r.y[i]);
    if (!(err <= static_cast<long double>(u * r.scale[i])))
      return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

/// Relative residual ||b - A x|| / ||b|| in long double.
inline double true_residual(const CsrMatrix& A, const value_t* b,
                            const value_t* x) {
  const Reference ax = reference_product(A, x);
  long double rr = 0.0L, bb = 0.0L;
  for (std::size_t i = 0; i < ax.y.size(); ++i) {
    const long double d = static_cast<long double>(b[i]) - ax.y[i];
    rr += d * d;
    bb += static_cast<long double>(b[i]) * b[i];
  }
  return static_cast<double>(std::sqrt(rr / bb));
}

}  // namespace bench
