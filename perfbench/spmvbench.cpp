// spmvbench — the end-to-end benchmark driver that perfbench/run.py builds
// and runs.  README.md in this directory describes the workloads, metrics,
// thread counts and checks.
//
//   spmvbench --workload solve-cg|spmv-classes|spmv-dram|serve --seed N
//             --seconds S --trace 0|1 [--socket PATH] [--trace-out FILE]
//   spmvbench --self-test
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, every name on every workload
// (0 where the workload does not reach that layer), and a span trace is
// written to --trace-out.
#include <omp.h>
#include <pthread.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "mklcompat/ref_csr.hpp"
#include "support/cpu_info.hpp"
#include "report/json.hpp"
#include "trace.hpp"

namespace {

using namespace bench;
namespace so = spmvopt;
namespace opt = spmvopt::optimize;
namespace srv = spmvopt::server;
using so::engine::ExecutionEngine;

// ------------------------------------------------------------- sizes
// Cache-resident inputs stay within the 4 × 2 MiB private L2s of the host
// the figures in README.md were taken on; the DRAM input is ≥ 4× its LLC.
constexpr index_t kCgGrid = 6;           // Poisson 6³: 216 rows
constexpr index_t kCgBandRows = 200000;  // banded SPD, half-width 4
constexpr index_t kCgBandHalf = 4;
constexpr value_t kCgBandMargin = 4.0;   // diagonal dominance: κ ≈ 2
constexpr double kCgTolerance = 1e-6;
constexpr int kCgMaxIterations = 500;
constexpr int kCgRuns = 200;
constexpr int kCgQuietMs = 50;  // lets the solver's OpenMP threads park
constexpr index_t kDramRows = 6'400'000;  // ≈ 102M nnz, ≈ 1.33 GB working set
constexpr index_t kServeGrid = 48;        // Poisson 48³: ≈ 774k nnz
constexpr int kNrhs = 8;

// Operations per round.
constexpr int kClassRuns = 100, kClassMany = 10;
constexpr int kDramRuns = 8;
constexpr int kServeRuns = 200, kServeMany = 10;
constexpr int kServeThreads = 2;  // spmvoptd --threads, set in run.py

// ------------------------------------------------------------- statistics
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double e : v) s += std::log(e);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double e : v) s += e;
  return s;
}
double secs(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// ------------------------------------------------------------- the run
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket;
  std::string trace_out;
};

/// Every per-layer metric, printed on every workload in this order.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"features.extract_ms", "ms"},      {"classify.heuristic_ms", "ms"},
    {"optimize.plan_ms", "ms"},         {"optimize.create_ms", "ms"},
    {"kernels.gflops", "Gflop/s"},      {"kernels.spmm8_gflops", "Gflop/s"},
    {"kernels.csr_gflops", "Gflop/s"},  {"kernels.bytes_per_product", "bytes"},
    {"kernels.frac_of_bound", "ratio"}, {"perf.stream_gbps", "GB/s"},
    {"engine.dispatch_us", "us"},       {"engine.dispatches", "count"},
    {"solvers.iterations", "count"},    {"solvers.matvec_s", "s"},
    {"solvers.self_s", "s"},            {"server.fingerprint_ms", "ms"},
    {"server.encode_submit_ms", "ms"},  {"server.decode_submit_ms", "ms"},
    {"server.preprocess_ms", "ms"},     {"server.encode_run_ms", "ms"},
    {"server.decode_run_ms", "ms"},     {"server.busy_ms_per_run", "ms"},
    {"server.wire_ms", "ms"},           {"server.small_run_us", "us"},
    {"server.cache.hot_hits", "count"}, {"server.cache.misses", "count"},
    {"server.submit_hot_ms", "ms"},     {"server.run_p50_ms", "ms"},
    {"server.run_p99_ms", "ms"},        {"server.requests_per_s", "req/s"},
    {"trace.overhead_pct", "%"},
};

const std::vector<std::pair<const char*, const char*>> kEndToEndMetrics = {
    {"setup_s", "s"}, {"round_s", "s"}, {"spmv_gflops", "Gflop/s"}};

struct Run {
  Options opt;
  Tracer tr;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, double> e2e, layer;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::fprintf(stderr, "spmvbench: check failed: %s\n", what.c_str());
    correct = false;
  }
  /// A library or server call that returned an error instead of a result.
  void failed_op(const std::string& what) {
    if (failed == 0) std::fprintf(stderr, "spmvbench: failed: %s\n", what.c_str());
    ++failed;
  }
};

/// Per-operation timing samples of one phase, keyed by operation.
using Samples = std::map<std::string, std::vector<double>>;

struct Phase {
  std::vector<double> rounds;
  Samples samples;
};

/// Runs whole rounds until `seconds` have passed (at least one), recording
/// spans only when `traced`.  A round returns the summed duration of its
/// timed operations, which excludes the benchmark's own checks.
Phase run_rounds(Run& run, double seconds, bool traced,
                 const std::function<double(Samples&)>& round) {
  Phase p;
  run.tr.record(traced);
  const std::int64_t t0 = now_ns();
  do {
    Tracer::Scope s(run.tr, "round");
    p.rounds.push_back(round(p.samples));
  } while (secs(t0) < seconds);
  run.tr.record(false);
  return p;
}

/// The measured phase, after the caller's warm-up.  A traced run measures
/// half its time untraced and half traced, reports the difference as the
/// tracing overhead, and returns the untraced half.
Phase measure(Run& run, const std::function<double(Samples&)>& round) {
  if (!run.opt.trace) return run_rounds(run, run.opt.seconds, false, round);
  Phase a = run_rounds(run, run.opt.seconds / 2, false, round);
  const Phase b = run_rounds(run, run.opt.seconds / 2, true, round);
  run.layer["trace.overhead_pct"] =
      (median(b.rounds) / median(a.rounds) - 1.0) * 100.0;
  return a;
}

// ------------------------------------------------------------- affinity
// The default engine pins the calling thread to one CPU, and OpenMP workers
// later spawned from it inherit that mask (README.md, FOUND 1).  The probes
// that must see the whole machine run on a helper thread restored to the
// mask the process started with; the workloads themselves run as a user's
// code would.
cpu_set_t g_start_mask;

void run_unpinned(const std::function<void()>& f) {
  std::exception_ptr err;
  std::thread t([&] {
    pthread_setaffinity_np(pthread_self(), sizeof g_start_mask, &g_start_mask);
    try {
      f();
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  if (err) std::rethrow_exception(err);
}

// ------------------------------------------------------------- cases
struct Case {
  std::string name;
  CsrMatrix A;
  std::vector<std::vector<value_t>> xs;  ///< seeded operands
  std::vector<Reference> refs;           ///< refs[k] = A · xs[k]
  opt::OptimizedSpmv spmv;
  std::vector<so::numa_vector<value_t>> xv;  ///< xs, engine-placed
  std::vector<so::numa_vector<value_t>> yv;  ///< one output per operand
  std::vector<value_t> X, Y;  ///< kNrhs operands, vector-major

  [[nodiscard]] double flops() const { return 2.0 * static_cast<double>(A.nnz()); }
  [[nodiscard]] double u() const {
    return spmv.precision() == so::Precision::F64 ? kU64 : kU32;
  }
};
using Cases = std::vector<std::unique_ptr<Case>>;

std::unique_ptr<Case> make_case(std::string name, CsrMatrix A, int nx,
                                Rng& rng) {
  auto c = std::make_unique<Case>();
  c->name = std::move(name);
  c->A = std::move(A);
  for (int k = 0; k < nx; ++k) {
    c->xs.push_back(random_vector(static_cast<std::size_t>(c->A.ncols()), rng));
    c->refs.push_back(reference_product(c->A, c->xs.back().data()));
  }
  return c;
}

void check_product(Run& run, const Case& c, const value_t* y, std::size_t k,
                   double u, const char* what) {
  const std::ptrdiff_t row = first_violation(y, c.refs[k], u);
  run.check(row < 0, c.name + " " + what + ": row " + std::to_string(row) +
                         " outside the error bound");
}

/// The documented path: classify → plan → bind to the engine.
void set_up(Run& run, ExecutionEngine& eng, Case& c) {
  Tracer::Scope s(run.tr, "setup");
  so::classify::ClassSet cls;
  opt::Plan plan;
  {
    Tracer::Scope t(run.tr, "classify.heuristic");
    cls = so::classify::heuristic_feature_classes(c.A);
  }
  {
    Tracer::Scope t(run.tr, "optimize.plan");
    plan = opt::plan_for_classes(cls, c.A);
  }
  {
    Tracer::Scope t(run.tr, "optimize.create");
    c.spmv = opt::OptimizedSpmv::create(c.A, plan, eng);
  }
  run.attempted += 3;
  std::printf("# %s: rows=%d nnz=%d working_set=%.2f MB classes=%s plan=%s\n",
              c.name.c_str(), c.A.nrows(), c.A.nnz(),
              static_cast<double>(c.A.working_set_bytes()) / 1e6,
              cls.to_string().c_str(), c.spmv.plan().to_string().c_str());
}

/// The first kNrhs operands packed vector-major for run_many().
void pack_batch(Case& c) {
  const auto n = static_cast<std::size_t>(c.A.ncols());
  c.X.resize(n * kNrhs);
  c.Y.resize(static_cast<std::size_t>(c.A.nrows()) * kNrhs);
  for (std::size_t r = 0; r < kNrhs; ++r)
    std::copy(c.xs[r].begin(), c.xs[r].end(), c.X.begin() + r * n);
}

/// Engine-placed operands for run(), and the batch for run_many().
void bind_operands(ExecutionEngine& eng, Case& c, bool batch) {
  c.xv.clear();
  c.yv.clear();
  for (const auto& x : c.xs) {
    c.xv.push_back(eng.touched_vector(c.A.ncols()));
    std::copy(x.begin(), x.end(), c.xv.back().begin());
    c.yv.push_back(eng.touched_vector(c.A.nrows(), c.spmv.partition()));
  }
  if (batch) pack_batch(c);
}

/// Times `reps` calls of `f` (at most `budget_s` of them after the first),
/// returning the median call time.
double median_call(int reps, double budget_s, const std::function<void()>& f) {
  std::vector<double> t;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < reps && (i == 0 || secs(t0) < budget_s); ++i) {
    const std::int64_t s = now_ns();
    f();
    t.push_back(secs(s));
  }
  return median(t);
}

// ------------------------------------------------------------- probes
// Per-layer figures measured by calling each layer's public functions
// directly on the workload's matrices (traced runs only).

void probe_setup(Run& run, ExecutionEngine& eng, const Cases& cases) {
  double feat = 0, cls = 0, plan = 0, create = 0;
  for (const auto& c : cases) {
    const int reps = c->A.nnz() > 10'000'000 ? 1 : 5;
    feat += median_call(reps, 60, [&] { (void)so::features::extract_features(c->A); });
    so::classify::ClassSet k;
    cls += median_call(reps, 60, [&] { k = so::classify::heuristic_feature_classes(c->A); });
    opt::Plan p;
    plan += median_call(reps, 60, [&] { p = opt::plan_for_classes(k, c->A); });
    create += median_call(reps, 60, [&] { (void)opt::OptimizedSpmv::create(c->A, p, eng); });
    run.attempted += 4 * static_cast<std::uint64_t>(reps);
  }
  run.layer["features.extract_ms"] = feat * 1e3;
  run.layer["classify.heuristic_ms"] = cls * 1e3;
  run.layer["optimize.plan_ms"] = plan * 1e3;
  run.layer["optimize.create_ms"] = create * 1e3;
}

/// STREAM triad over three arrays totalling `bytes`, on all CPUs the
/// process started with and one OpenMP thread per engine thread.
double probe_stream(Run& run, std::size_t bytes, int nthreads) {
  double gbps = 0.0;
  const std::size_t elems = std::max<std::size_t>(4096, bytes / 24);
  const int reps = bytes > (64u << 20) ? 5 : 200;
  run_unpinned([&] { gbps = so::perf::stream_triad_gbps(elems, nthreads, reps); });
  run.layer["perf.stream_gbps"] = gbps;
  std::printf("# stream triad: %.1f MB arrays, %d threads: %.2f GB/s\n",
              static_cast<double>(elems) * 24 / 1e6, nthreads, gbps);
  return gbps;
}

/// Bound-kernel, batched and single-thread CSR baseline rates per matrix,
/// plus the computed bytes per product and the fraction of P_MB reached.
void probe_kernels(Run& run, const Cases& cases, double bmax_gbps, bool batch) {
  std::vector<double> gf, gf8, csr, frac;
  double bytes_total = 0.0;
  for (const auto& cp : cases) {
    Case& c = *cp;
    const double t1 = median_call(400, 0.5, [&] { c.spmv.run(c.xv[0].data(), c.yv[0].data()); });
    check_product(run, c, c.yv[0].data(), 0, c.u(), "probe run");
    gf.push_back(c.flops() / t1 / 1e9);
    double g8 = 0.0;
    if (batch) {
      const double t8 = median_call(100, 0.5, [&] { c.spmv.run_many(c.X.data(), c.Y.data(), kNrhs); });
      g8 = c.flops() * kNrhs / t8 / 1e9;
      gf8.push_back(g8);
    }
    std::vector<value_t> yb(static_cast<std::size_t>(c.A.nrows()));
    double tb = 0.0;
    run_unpinned([&] {
      omp_set_num_threads(1);
      tb = median_call(200, 0.5, [&] { so::mklcompat::ref_dcsrmv(c.A, c.xs[0].data(), yb.data()); });
    });
    check_product(run, c, yb.data(), 0, kU64, "ref_dcsrmv");
    csr.push_back(c.flops() / tb / 1e9);
    // Computed, not measured: the bound representation plus x and y.
    const double bytes = static_cast<double>(c.spmv.format_bytes()) +
                         8.0 * (c.A.ncols() + c.A.nrows());
    bytes_total += bytes;
    const double p_mb = c.flops() / (bytes / (bmax_gbps * 1e9)) / 1e9;
    frac.push_back(gf.back() / p_mb);
    run.attempted += 3;
    std::printf("# kernels.gflops.%s=%.4f kernels.spmm8_gflops.%s=%.4f "
                "kernels.csr_gflops.%s=%.4f kernels.bytes_per_product.%s=%.0f "
                "(computed) kernels.frac_of_bound.%s=%.4f\n",
                c.name.c_str(), gf.back(), c.name.c_str(), g8, c.name.c_str(),
                csr.back(), c.name.c_str(), bytes, c.name.c_str(), frac.back());
  }
  run.layer["kernels.gflops"] = geomean(gf);
  run.layer["kernels.spmm8_gflops"] = gf8.empty() ? 0.0 : geomean(gf8);
  run.layer["kernels.csr_gflops"] = geomean(csr);
  run.layer["kernels.bytes_per_product"] = bytes_total;
  run.layer["kernels.frac_of_bound"] = geomean(frac);
}

/// Median run() of a tiny engine-bound matrix: the per-dispatch overhead.
void probe_dispatch(Run& run, ExecutionEngine& eng) {
  Rng rng(7);
  Case c;
  c.name = "tiny";
  c.A = banded_spd(64, 1, 1.0, rng);
  c.xs.push_back(random_vector(64, rng));
  c.refs.push_back(reference_product(c.A, c.xs[0].data()));
  c.spmv = opt::OptimizedSpmv::create(
      c.A, opt::plan_for_classes(so::classify::heuristic_feature_classes(c.A), c.A), eng);
  bind_operands(eng, c, false);
  run.layer["engine.dispatch_us"] =
      median_call(2000, 1.0, [&] { c.spmv.run(c.xv[0].data(), c.yv[0].data()); }) * 1e6;
  check_product(run, c, c.yv[0].data(), 0, c.u(), "dispatch probe");
  ++run.attempted;
}

/// The per-layer probes every library-side workload shares.
void probe_library(Run& run, ExecutionEngine& eng, const Cases& cases,
                   double bmax_gbps, bool batch) {
  probe_setup(run, eng, cases);
  probe_kernels(run, cases, bmax_gbps, batch);
  probe_dispatch(run, eng);
}

std::size_t max_working_set(const Cases& cases) {
  std::size_t ws = 0;
  for (const auto& c : cases) ws = std::max(ws, c->A.working_set_bytes());
  return ws;
}

// ------------------------------------------------------------- products
/// One round of library products: per case, `runs` single-vector products
/// in back-to-back bursts over its seeded operands (one output vector
/// each), every output checked after its burst, then `many` kNrhs-wide
/// batches.  A few entries of each output are poisoned first, so a call
/// that writes nothing fails the check.
double product_round(Run& run, Cases& cases, int runs, int many, Samples& s,
                     std::uint64_t& request) {
  constexpr value_t kPoison = std::numeric_limits<value_t>::quiet_NaN();
  double total = 0.0;
  for (auto& cp : cases) {
    Case& c = *cp;
    const auto n = static_cast<std::size_t>(c.A.nrows());
    std::vector<double>& rs = s["run:" + c.name];
    for (int r = 0; r < runs;) {
      const std::size_t burst = std::min<std::size_t>(c.xv.size(), static_cast<std::size_t>(runs - r));
      for (std::size_t k = 0; k < burst; ++k) c.yv[k][0] = c.yv[k][n / 2] = c.yv[k][n - 1] = kPoison;
      for (std::size_t k = 0; k < burst; ++k, ++r) {
        const std::int64_t t = now_ns();
        {
          Tracer::Scope span(run.tr, "kernels.run", ++request);
          c.spmv.run(c.xv[k].data(), c.yv[k].data());
        }
        const double d = secs(t);
        rs.push_back(d);
        total += d;
        ++run.attempted;
      }
      for (std::size_t k = 0; k < burst; ++k) check_product(run, c, c.yv[k].data(), k, c.u(), "run");
    }
    std::vector<double>& ms = s["many:" + c.name];
    for (int r = 0; r < many; ++r) {
      std::fill(c.Y.begin(), c.Y.end(), kPoison);
      const std::int64_t t = now_ns();
      {
        Tracer::Scope span(run.tr, "kernels.run_many", ++request);
        c.spmv.run_many(c.X.data(), c.Y.data(), kNrhs);
      }
      const double d = secs(t);
      ms.push_back(d);
      total += d;
      ++run.attempted;
      for (std::size_t k = 0; k < kNrhs; ++k)
        check_product(run, c, c.Y.data() + k * n, k, c.u(), "run_many");
    }
  }
  return total;
}

/// Geometric mean over the cases of 2·nnz / median run() time.
double spmv_gflops(const Cases& cases, Samples& s) {
  std::vector<double> gf;
  for (const auto& c : cases) {
    gf.push_back(c->flops() / median(s["run:" + c->name]) / 1e9);
    std::printf("# %s: run %.2f us median, %.4f Gflop/s\n", c->name.c_str(),
                median(s["run:" + c->name]) * 1e6, gf.back());
  }
  return geomean(gf);
}

// ------------------------------------------------------------- solve-cg
/// CG over LinearOperator::from_optimized on a default engine, the path
/// the umbrella header documents.  The operator is wrapped to count and
/// time its applies; the engine is built before anything on this thread
/// opens an OpenMP region, as an application following that path would.
void workload_solve_cg(Run& run) {
  Rng rng(run.opt.seed);
  Cases cases;
  cases.push_back(make_case("poisson3d_6", poisson3d(kCgGrid), 1, rng));
  cases.push_back(make_case("banded_spd", banded_spd(kCgBandRows, kCgBandHalf, kCgBandMargin, rng), 1, rng));
  std::vector<std::vector<value_t>> bs;
  for (const auto& c : cases) bs.push_back(random_vector(static_cast<std::size_t>(c->A.nrows()), rng));

  run.tr.record(run.opt.trace);
  const std::int64_t t0 = now_ns();
  auto eng = std::make_unique<ExecutionEngine>();
  for (auto& c : cases) set_up(run, *eng, *c);
  run.e2e["setup_s"] = secs(t0);
  run.tr.record(false);

  for (auto& c : cases) bind_operands(*eng, *c, false);

  // The solver sees the operator through a wrapper that counts and times
  // its applies (solvers.matvec_s, and the dispatch-count check).
  struct Counted {
    so::solvers::LinearOperator base;
    std::uint64_t applies = 0;
    double apply_s = 0.0;
  };
  std::vector<std::unique_ptr<Counted>> counted;
  std::vector<so::solvers::LinearOperator> ops;
  for (auto& c : cases) {
    counted.push_back(std::make_unique<Counted>(
        Counted{so::solvers::LinearOperator::from_optimized(c->spmv)}));
    Counted* k = counted.back().get();
    Tracer* tr = &run.tr;
    ops.emplace_back(c->A.nrows(), c->A.ncols(),
                     [k, tr](const value_t* x, value_t* y) {
                       const int s = tr->begin("solvers.apply");
                       const std::int64_t t = now_ns();
                       k->base.apply(x, y);
                       k->apply_s += secs(t);
                       tr->end(s);
                       ++k->applies;
                     });
  }

  std::uint64_t request = 0;
  std::vector<value_t> x;
  const auto solve = [&](std::size_t i, Samples& s, int max_it) {
    Case& c = *cases[i];
    Counted& k = *counted[i];
    x.assign(static_cast<std::size_t>(c.A.nrows()), 0.0);
    const std::uint64_t d0 = eng->dispatch_count(), a0 = k.applies;
    const double m0 = k.apply_s;
    so::solvers::SolverOptions so_opt;
    so_opt.max_iterations = max_it;
    so_opt.rel_tolerance = kCgTolerance;
    const std::int64_t t = now_ns();
    so::solvers::SolveResult res;
    {
      Tracer::Scope span(run.tr, "solvers.cg", ++request);
      res = so::solvers::cg(ops[i], bs[i], x, so_opt);
    }
    const double dt = secs(t);
    ++run.attempted;
    const std::uint64_t applies = k.applies - a0;
    run.check(eng->dispatch_count() - d0 == applies,
              c.name + ": engine dispatches differ from the operator's applies");
    if (max_it == kCgMaxIterations) {
      run.check(res.converged, c.name + ": CG did not converge");
      const double r = true_residual(c.A, bs[i].data(), x.data());
      run.check(r <= 10 * kCgTolerance,
                c.name + ": true residual " + std::to_string(r) + " > 10x tolerance");
    }
    s["iterations"].push_back(res.iterations);
    s["dispatches"].push_back(static_cast<double>(eng->dispatch_count() - d0));
    s["matvec_s"].push_back(k.apply_s - m0);
    s["self_s"].push_back(dt - (k.apply_s - m0));
    return dt;
  };

  // A round solves both systems, then runs plain products on the same
  // bound operators for spmv_gflops.  Timed inside CG, a product shares its
  // CPU with the solver's spinning OpenMP threads and reads far too noisy to
  // gate, so the products start once those threads have gone to sleep.
  Samples warm;
  for (std::size_t i = 0; i < cases.size(); ++i) (void)solve(i, warm, 2);
  Phase a = measure(run, [&](Samples& s) {
    double t = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) t += solve(i, s, kCgMaxIterations);
    std::this_thread::sleep_for(std::chrono::milliseconds(kCgQuietMs));
    return t + product_round(run, cases, kCgRuns, 0, s, request);
  });
  run.e2e["round_s"] = median(a.rounds);
  run.e2e["spmv_gflops"] = spmv_gflops(cases, a.samples);
  if (!run.opt.trace) return;

  // Per round = per pass over both systems; solves are split by system in
  // the samples, so sum consecutive pairs.
  const auto per_round = [&](const std::vector<double>& v) {
    std::vector<double> r;
    for (std::size_t i = 0; i + cases.size() <= v.size(); i += cases.size()) {
      double s = 0.0;
      for (std::size_t j = 0; j < cases.size(); ++j) s += v[i + j];
      r.push_back(s);
    }
    return median(r);
  };
  run.layer["solvers.iterations"] = per_round(a.samples["iterations"]);
  run.layer["engine.dispatches"] = per_round(a.samples["dispatches"]);
  run.layer["solvers.matvec_s"] = per_round(a.samples["matvec_s"]);
  run.layer["solvers.self_s"] = per_round(a.samples["self_s"]);
  const double bmax = probe_stream(run, max_working_set(cases), eng->nthreads());
  probe_library(run, *eng, cases, bmax, false);
}


/// Shared body of spmv-classes and spmv-dram: cold set-up on a default
/// engine, warm-up, the measured rounds and, when traced, the probes.
void library_products(Run& run, Cases& cases, int runs, int many,
                      double bmax_gbps) {
  run.tr.record(run.opt.trace);
  const std::int64_t t0 = now_ns();
  auto eng = std::make_unique<ExecutionEngine>();
  for (auto& c : cases) set_up(run, *eng, *c);
  run.e2e["setup_s"] = secs(t0);
  run.tr.record(false);
  for (auto& c : cases) bind_operands(*eng, *c, many > 0);

  std::uint64_t request = 0, rounds = 0;
  Samples warm;
  (void)product_round(run, cases, std::min(runs, 2), std::min(many, 2), warm, request);
  const std::uint64_t d0 = eng->dispatch_count();
  Phase a = measure(run, [&](Samples& s) {
    ++rounds;
    return product_round(run, cases, runs, many, s, request);
  });
  run.e2e["round_s"] = median(a.rounds);
  run.e2e["spmv_gflops"] = spmv_gflops(cases, a.samples);
  if (!run.opt.trace) return;
  run.layer["engine.dispatches"] =
      static_cast<double>(eng->dispatch_count() - d0) / static_cast<double>(rounds);
  probe_library(run, *eng, cases, bmax_gbps, many > 0);
}

/// One cache-resident matrix per class the heuristic emits besides MB.
void workload_spmv_classes(Run& run) {
  Rng rng(run.opt.seed);
  Cases cases;
  cases.push_back(make_case("random_uniform", random_uniform(40000, 8, rng), kNrhs, rng));
  cases.push_back(make_case("few_dense_rows", few_dense_rows(60000, 16, 6000, rng), kNrhs, rng));
  cases.push_back(make_case("block_dense", block_dense(10000, 32, rng), kNrhs, rng));
  const double bmax = run.opt.trace ? probe_stream(run, max_working_set(cases), so::default_threads()) : 0.0;
  library_products(run, cases, kClassRuns, kClassMany, bmax);
}

/// One MB-class matrix at least four times the LLC the classifier reads.
void workload_spmv_dram(Run& run) {
  const std::size_t llc = so::cpu_info().llc_bytes;
  // Before the matrix exists, so the STREAM arrays and the matrix are never
  // resident together.
  const double bmax = run.opt.trace ? probe_stream(run, 4 * llc, so::default_threads()) : 0.0;
  Rng rng(run.opt.seed);
  Cases cases;
  cases.push_back(make_case("band_rows", band_rows(kDramRows, rng), 1, rng));
  std::printf("# working set %.1f MB = %.2f x LLC (%.1f MB)\n",
              static_cast<double>(cases[0]->A.working_set_bytes()) / 1e6,
              static_cast<double>(cases[0]->A.working_set_bytes()) / static_cast<double>(llc),
              static_cast<double>(llc) / 1e6);
  library_products(run, cases, kDramRuns, 0, bmax);
}

// ------------------------------------------------------------- serve
struct ServerCounts {
  double submits = 0, runs = 0, run_manys = 0, hot = 0, misses = 0;
  double busy_s = 0, dispatches = 0;
};

ServerCounts read_stats(Run& run, srv::Client& cl) {
  ServerCounts c;
  auto text = cl.stats_json();
  if (!text) {
    run.failed_op("stats: " + text.error().to_string());
    return c;
  }
  auto doc = so::report::Json::parse(text.value());
  run.check(doc.ok(), "stats reply is not JSON");
  if (!doc) return c;
  const auto num = [&](const so::report::Json* j, const char* key) {
    const so::report::Json* v = j != nullptr ? j->find(key) : nullptr;
    run.check(v != nullptr && v->is_number(), std::string("stats lacks ") + key);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  const so::report::Json& d = doc.value();
  c.submits = num(&d, "submits");
  c.runs = num(&d, "runs");
  c.run_manys = num(&d, "run_manys");
  c.busy_s = num(&d, "busy_seconds");
  c.hot = num(d.find("cache"), "hot_hits");
  c.misses = num(d.find("cache"), "misses");
  c.dispatches = num(d.find("engine"), "dispatches");
  return c;
}

/// spmvoptd over its Unix socket, one closed-loop client on one connection.
/// The server (started by run.py with kServeThreads compute threads) is
/// asked to shut down at the end.
void workload_serve(Run& run) {
  Rng rng(run.opt.seed);
  Cases cases;
  cases.push_back(make_case("poisson3d_48", poisson3d(kServeGrid), kNrhs, rng));
  cases.push_back(make_case("block_dense", block_dense(6000, 32, rng), kNrhs, rng));
  cases.push_back(make_case("few_dense_rows", few_dense_rows(40000, 8, 4000, rng), kNrhs, rng));
  cases.push_back(make_case("random_uniform", random_uniform(20000, 8, rng), kNrhs, rng));
  cases.push_back(make_case("small", random_uniform(1250, 8, rng), kNrhs, rng));
  Case& mid = *cases[0];
  const auto n_mid = static_cast<std::size_t>(mid.A.nrows());
  pack_batch(mid);

  std::optional<srv::Client> cl;
  for (const std::int64_t t0 = now_ns(); !cl && secs(t0) < 60;) {
    auto c = srv::Client::connect(run.opt.socket);
    if (c) cl.emplace(std::move(c.value()));
    else std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!cl) throw std::runtime_error("cannot connect to " + run.opt.socket);

  // Client-side tallies, compared with the server's counters at the end.
  ServerCounts mine;
  std::vector<so::Fingerprint> fps(cases.size());
  std::vector<double> us(cases.size(), kU64);  // roundoff of each served plan
  const ServerCounts s0 = read_stats(run, *cl);
  double pre_s = 0.0;
  std::uint64_t request = 0;

  run.tr.record(run.opt.trace);
  double setup = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::int64_t t = now_ns();
    auto r = [&] {
      Tracer::Scope span(run.tr, "server.submit_cold", ++request);
      return cl->submit(cases[i]->A);
    }();
    setup += secs(t);
    ++run.attempted;
    ++mine.submits;
    ++mine.misses;
    if (!r) {
      run.failed_op("submit " + cases[i]->name + ": " + r.error().to_string());
      continue;
    }
    run.check(r.value().state == srv::CacheState::Miss,
              cases[i]->name + ": first submit was not a miss");
    fps[i] = r.value().fp;
    if (r.value().plan.find("f32") != std::string::npos) us[i] = kU32;
    pre_s += r.value().pre_seconds;
    std::printf("# %s: rows=%d nnz=%d working_set=%.2f MB plan=%s\n",
                cases[i]->name.c_str(), cases[i]->A.nrows(), cases[i]->A.nnz(),
                static_cast<double>(cases[i]->A.working_set_bytes()) / 1e6,
                r.value().plan.c_str());
  }
  run.tr.record(false);
  run.e2e["setup_s"] = setup;

  const auto timed_run = [&](std::size_t i, std::size_t k, std::vector<double>& sink) {
    Case& c = *cases[i];
    const so::Fingerprint& fp = fps[i];
    const std::int64_t t = now_ns();
    auto r = [&] {
      Tracer::Scope span(run.tr, "server.run", ++request);
      return cl->run(fp, c.xs[k]);
    }();
    const double d = secs(t);
    ++run.attempted;
    ++mine.runs;
    if (!r) {
      run.failed_op("run " + c.name + ": " + r.error().to_string());
      return d;
    }
    sink.push_back(d);
    run.check(r.value().size() == static_cast<std::size_t>(c.A.nrows()),
              c.name + ": run reply has the wrong length");
    if (r.value().size() == static_cast<std::size_t>(c.A.nrows()))
      check_product(run, c, r.value().data(), k, us[i], "server run");
    return d;
  };
  const auto timed_many = [&](so::Dtype dt, std::vector<double>& sink) {
    const std::int64_t t = now_ns();
    auto r = [&] {
      Tracer::Scope span(run.tr, "server.run_many", ++request);
      return cl->run_many(fps[0], mid.X, kNrhs, dt);
    }();
    const double d = secs(t);
    ++run.attempted;
    ++mine.run_manys;
    if (!r) {
      run.failed_op("run_many: " + r.error().to_string());
      return d;
    }
    sink.push_back(d);
    run.check(r.value().size() == n_mid * kNrhs, "run_many reply has the wrong length");
    if (r.value().size() == n_mid * kNrhs)
      for (std::size_t k = 0; k < kNrhs; ++k)
        check_product(run, mid, r.value().data() + k * n_mid, k,
                      dt == so::Dtype::F32 ? kU32 : us[0],
                      dt == so::Dtype::F32 ? "server run_many f32" : "server run_many f64");
    return d;
  };

  std::uint64_t rounds = 0;
  const auto round = [&](Samples& s) {
    ++rounds;
    double total = 0.0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::int64_t t = now_ns();
      auto r = [&] {
        Tracer::Scope span(run.tr, "server.submit_hot", ++request);
        return cl->submit(cases[i]->A);
      }();
      const double d = secs(t);
      total += d;
      ++run.attempted;
      ++mine.submits;
      ++mine.hot;
      if (!r) {
        run.failed_op("resubmit " + cases[i]->name + ": " + r.error().to_string());
        continue;
      }
      if (i == 0) s["submit_hot"].push_back(d);
      run.check(r.value().state == srv::CacheState::Hot,
                cases[i]->name + ": repeated submit was not a hot hit");
      run.check(r.value().fp == fps[i], cases[i]->name + ": fingerprint changed");
    }
    for (int k = 0; k < kServeRuns; ++k)
      total += timed_run(0, static_cast<std::size_t>(k) % kNrhs, s["run"]);
    for (int k = 0; k < kServeMany; ++k) {
      total += timed_many(so::Dtype::F64, s["many_f64"]);
      total += timed_many(so::Dtype::F32, s["many_f32"]);
    }
    return total;
  };
  Samples warm;
  (void)round(warm);
  const ServerCounts s1 = read_stats(run, *cl);
  rounds = 0;
  Phase a = measure(run, round);
  const ServerCounts s2 = read_stats(run, *cl);
  run.e2e["round_s"] = median(a.rounds);
  run.e2e["spmv_gflops"] = mid.flops() / median(a.samples["run"]) / 1e9;

  if (run.opt.trace) {
    std::vector<double>& runs = a.samples["run"];
    run.layer["server.submit_hot_ms"] = median(a.samples["submit_hot"]) * 1e3;
    run.layer["server.requests_per_s"] =
        static_cast<double>(runs.size() + a.samples["many_f64"].size() + a.samples["many_f32"].size()) /
        (sum(runs) + sum(a.samples["many_f64"]) + sum(a.samples["many_f32"]));
    run.layer["server.preprocess_ms"] = pre_s * 1e3;
    run.layer["engine.dispatches"] = (s2.dispatches - s1.dispatches) / static_cast<double>(rounds);

    // Server-side busy time of a block of runs; the rest of the round trip
    // is the client, the socket and the wait for a wake-up.
    std::vector<double> block, small_runs;
    const ServerCounts b0 = read_stats(run, *cl);
    for (int k = 0; k < kServeRuns; ++k)
      (void)timed_run(0, static_cast<std::size_t>(k) % kNrhs, block);
    const ServerCounts b1 = read_stats(run, *cl);
    const double busy_ms = (b1.busy_s - b0.busy_s) / kServeRuns * 1e3;
    run.layer["server.busy_ms_per_run"] = busy_ms;
    run.layer["server.wire_ms"] = median(block) * 1e3 - busy_ms;
    // The untraced rounds and the block, all untraced: at least 1000 samples.
    runs.insert(runs.end(), block.begin(), block.end());
    run.layer["server.run_p50_ms"] = median(runs) * 1e3;
    run.layer["server.run_p99_ms"] = quantile(runs, 0.99) * 1e3;
    std::printf("# server.run samples for p50/p99: %zu\n", runs.size());
    for (int k = 0; k < kServeRuns; ++k)
      (void)timed_run(cases.size() - 1, static_cast<std::size_t>(k) % kNrhs, small_runs);
    run.layer["server.small_run_us"] = median(small_runs) * 1e6;

    // The codec and fingerprint calls a submit and a run make, in-process.
    run.layer["server.fingerprint_ms"] =
        median_call(5, 10, [&] { (void)so::fingerprint_of(mid.A); }) * 1e3;
    const srv::Request submit = srv::SubmitRequest{mid.A};
    std::string payload;
    run.layer["server.encode_submit_ms"] =
        median_call(5, 10, [&] { payload = srv::encode_request(submit); }) * 1e3;
    bool decoded = true;
    run.layer["server.decode_submit_ms"] =
        median_call(5, 10, [&] { decoded = decoded && srv::decode_request(payload).ok(); }) * 1e3;
    const srv::Request run_req = srv::RunRequest{fps[0], mid.xs[0]};
    const srv::Reply run_rep = srv::RunReply{mid.xs[0]};
    std::string req_p, rep_p;
    run.layer["server.encode_run_ms"] =
        (median_call(50, 10, [&] { req_p = srv::encode_request(run_req); }) +
         median_call(50, 10, [&] { rep_p = srv::encode_reply(run_rep); })) * 1e3;
    run.layer["server.decode_run_ms"] =
        (median_call(50, 10, [&] { decoded = decoded && srv::decode_request(req_p).ok(); }) +
         median_call(50, 10, [&] { decoded = decoded && srv::decode_reply(rep_p).ok(); })) * 1e3;
    run.check(decoded, "an encoded request or reply did not decode");
    run.attempted += 5;
  }

  const ServerCounts s3 = read_stats(run, *cl);
  run.check(s3.submits - s0.submits == mine.submits, "server submit count differs from the client's");
  run.check(s3.runs - s0.runs == mine.runs, "server run count differs from the client's");
  run.check(s3.run_manys - s0.run_manys == mine.run_manys, "server run_many count differs from the client's");
  // Every run and run_many looks its matrix up too, and each lookup is a hit.
  run.check(s3.hot - s0.hot == mine.hot + mine.runs + mine.run_manys,
            "server hot-hit count differs from the client's");
  run.check(s3.misses - s0.misses == mine.misses, "server miss count differs from the client's");
  run.layer["server.cache.hot_hits"] = s3.hot - s0.hot;
  run.layer["server.cache.misses"] = s3.misses - s0.misses;
  if (so::Status st = cl->shutdown_server(); !st.ok())
    std::fprintf(stderr, "spmvbench: shutdown: %s\n", st.error().to_string().c_str());

  if (!run.opt.trace) return;
  // The library layers a submit and a run go through, on the same matrices
  // and the server's team size, in this process.
  ExecutionEngine eng(so::engine::EngineConfig{.nthreads = kServeThreads});
  for (auto& c : cases) {
    c->spmv = opt::OptimizedSpmv::create(
        c->A, opt::plan_for_classes(so::classify::heuristic_feature_classes(c->A), c->A), eng);
    bind_operands(eng, *c, true);
  }
  const double bmax = probe_stream(run, max_working_set(cases), kServeThreads);
  probe_library(run, eng, cases, bmax, true);
}

// ------------------------------------------------------------- main
/// The output check must pass on a correct product and fail once one entry
/// is moved beyond its bound.
bool self_test() {
  Rng rng(11);
  const CsrMatrix A = random_uniform(500, 6, rng);
  const std::vector<value_t> x = random_vector(500, rng);
  const Reference r = reference_product(A, x.data());
  std::vector<value_t> y(500);
  A.multiply(x, y);
  const bool passes = first_violation(y.data(), r, kU64) < 0;
  const std::size_t k = 250;
  y[k] += 3 * kU64 * r.scale[k];
  const bool caught = first_violation(y.data(), r, kU64) == static_cast<std::ptrdiff_t>(k);
  std::fprintf(stderr, "spmvbench: self-test: exact product %s, perturbed row %s\n",
               passes ? "passes" : "FAILS", caught ? "caught" : "MISSED");
  return passes && caught;
}

void print_metrics(const Run& run) {
  const auto& names = run.opt.trace ? kLayerMetrics : kEndToEndMetrics;
  const auto& values = run.opt.trace ? run.layer : run.e2e;
  std::string out = std::string("{\"correct\": ") + (run.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.attempted) +
                    ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].first);
    const double v = it != values.end() && std::isfinite(it->second) ? it->second : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += std::string(i ? ", " : "") + "\"" + names[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + names[i].second + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: spmvbench --workload solve-cg|spmv-classes|spmv-dram|serve\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--socket PATH] [--trace-out FILE]\n"
               "       spmvbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sched_getaffinity(0, sizeof g_start_mask, &g_start_mask);
  Run run;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test() ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") run.opt.workload = v;
    else if (a == "--seed") run.opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") run.opt.seconds = std::strtod(v.c_str(), nullptr);
    else if (a == "--trace") run.opt.trace = v == "1";
    else if (a == "--socket") run.opt.socket = v;
    else if (a == "--trace-out") run.opt.trace_out = v;
    else return usage();
  }
  const std::map<std::string, void (*)(Run&)> workloads = {
      {"solve-cg", workload_solve_cg},
      {"spmv-classes", workload_spmv_classes},
      {"spmv-dram", workload_spmv_dram},
      {"serve", workload_serve}};
  const auto w = workloads.find(run.opt.workload);
  if (w == workloads.end() || !(run.opt.seconds > 0) ||
      (run.opt.workload == "serve" && run.opt.socket.empty()))
    return usage();

  run.check(self_test(), "self-test: the output check missed a perturbed entry");
  try {
    w->second(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spmvbench: %s: %s\n", run.opt.workload.c_str(), e.what());
    return 1;
  }
  if (run.opt.trace) {
    std::printf("# per-layer table from spans: name count total_ms self_ms\n");
    for (const auto& [name, row] : run.tr.table())
      std::printf("# span %-22s %8llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_s * 1e3,
                  row.self_s * 1e3);
    for (const auto& [name, unit] : kLayerMetrics)
      std::printf("# %-26s %.6g %s\n", name, run.layer[name], unit);
    if (!run.opt.trace_out.empty() && !run.tr.write_chrome(run.opt.trace_out))
      std::fprintf(stderr, "spmvbench: cannot write %s\n", run.opt.trace_out.c_str());
  }
  std::fflush(stdout);
  print_metrics(run);
  return 0;
}
