// End-to-end solver time-to-solution — Table V applied.
//
// Runs CG on a 3-D Poisson problem and BiCGSTAB on a nonsymmetric random
// system with each optimizer's kernel, charging every optimizer its full
// preprocessing cost.  The winner depends on iteration count vs t_pre,
// which is exactly the §IV-D argument for lightweight optimizers.
#include <cstdio>
#include <cmath>
#include <iostream>

#include "report/environment.hpp"
#include "support/env.hpp"
#include "gen/suite.hpp"
#include "classify/feature_classifier.hpp"
#include "engine/execution_engine.hpp"
#include "gen/generators.hpp"
#include "mklcompat/inspector_executor.hpp"
#include "mklcompat/ref_csr.hpp"
#include "optimize/optimizers.hpp"
#include "solvers/krylov.hpp"
#include "solvers/preconditioner.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

namespace {

using namespace spmvopt;

struct SolveCase {
  const char* name;
  CsrMatrix a;
  bool spd;
};

void run_case(const SolveCase& sc, const classify::FeatureClassifier& clf,
              const optimize::OptimizerConfig& cfg) {
  const std::vector<value_t> x_true = gen::test_vector(sc.a.ncols(), 7);
  std::vector<value_t> b(static_cast<std::size_t>(sc.a.nrows()));
  sc.a.multiply(x_true, b);
  solvers::SolverOptions opts;
  opts.max_iterations = 5000;
  opts.rel_tolerance = 1e-10;

  auto solve_with = [&](const solvers::LinearOperator& op) {
    std::vector<value_t> x(static_cast<std::size_t>(sc.a.nrows()), 0.0);
    Timer t;
    const auto r = sc.spd ? solvers::cg(op, b, x, opts)
                          : solvers::bicgstab(op, b, x, opts);
    return std::tuple{t.elapsed_sec(), r.iterations, r.converged};
  };

  Table t({"kernel", "t_pre_ms", "solve_s", "total_s", "iterations", "ok"});
  auto add = [&t](const char* name, double pre, double solve, int iters,
                  bool ok) {
    t.add_row({name, Table::num(pre * 1e3, 1), Table::num(solve, 3),
               Table::num(pre + solve, 3), std::to_string(iters),
               ok ? "yes" : "NO"});
  };

  {
    const auto op = solvers::LinearOperator::from_csr(sc.a);
    const auto [sec, iters, ok] = solve_with(op);
    add("baseline CSR", 0.0, sec, iters, ok);
  }
  {
    solvers::LinearOperator op(sc.a.nrows(), sc.a.ncols(),
                               [&sc](const value_t* x, value_t* y) {
                                 mklcompat::ref_dcsrmv(sc.a, x, y);
                               });
    const auto [sec, iters, ok] = solve_with(op);
    add("MKL-proxy", 0.0, sec, iters, ok);
  }
  {
    Timer pre;
    const auto ie = mklcompat::InspectorExecutorSpmv::analyze(sc.a);
    const double pre_sec = pre.elapsed_sec();
    solvers::LinearOperator op(sc.a.nrows(), sc.a.ncols(),
                               [&ie](const value_t* x, value_t* y) {
                                 ie.execute(x, y);
                               });
    const auto [sec, iters, ok] = solve_with(op);
    add("inspector-executor", pre_sec, sec, iters, ok);
  }
  {
    const auto out = optimize::optimize_profile(sc.a, cfg);
    const auto op = solvers::LinearOperator::from_optimized(out.spmv);
    const auto [sec, iters, ok] = solve_with(op);
    add("profile-guided", out.preprocess_seconds, sec, iters, ok);
  }
  {
    const auto out = optimize::optimize_feature(sc.a, clf, cfg);
    const auto op = solvers::LinearOperator::from_optimized(out.spmv);
    const auto [sec, iters, ok] = solve_with(op);
    add("feature-guided", out.preprocess_seconds, sec, iters, ok);
  }
  {
    // The same plan on a default engine (caller and team pinned): matvecs
    // and large vector kernels run on one team (DESIGN.md §8).
    const auto out = optimize::optimize_feature(sc.a, clf, cfg);
    engine::ExecutionEngine eng(engine::EngineConfig{});
    Timer bind;
    const auto spmv = optimize::OptimizedSpmv::create(sc.a, out.plan, eng);
    const double bind_sec = bind.elapsed_sec();
    const auto op = solvers::LinearOperator::from_optimized(spmv);
    const auto [sec, iters, ok] = solve_with(op);
    add("feature-guided, engine-bound", out.preprocess_seconds + bind_sec, sec,
        iters, ok);
  }
  if (sc.spd) {
    // Preconditioning slashes iterations — the regime where only the
    // lightest optimizer amortizes (§IV-D).
    const auto out = optimize::optimize_feature(sc.a, clf, cfg);
    const auto op = solvers::LinearOperator::from_optimized(out.spmv);
    std::vector<value_t> x(static_cast<std::size_t>(sc.a.nrows()), 0.0);
    Timer t2;
    const auto r = solvers::pcg(op, solvers::SsorPreconditioner(sc.a, 1.5), b,
                                x, opts);
    add("feature-guided + SSOR-PCG", out.preprocess_seconds, t2.elapsed_sec(),
        r.iterations, r.converged);
  }

  std::printf("== %s (n=%d, nnz=%d) ==\n", sc.name, sc.a.nrows(), sc.a.nnz());
  t.print(std::cout);
  std::printf("\n");
}

}  // namespace

int main() {
  report::print_host_preamble("Solver time-to-solution per optimizer (applied Table V)");
  const double scale = report::suite_scale();

  optimize::OptimizerConfig cfg;
  cfg.measure.iterations = quick_mode() ? 4 : 16;
  cfg.measure.runs = quick_mode() ? 1 : 2;
  cfg.measure.warmup = 1;

  // Small offline model for the feature-guided rows.
  std::vector<CsrMatrix> pool;
  for (const auto& e : gen::training_pool(quick_mode() ? 30 : 60))
    pool.push_back(e.make());
  perf::BoundsConfig label_cfg;
  label_cfg.measure.iterations = 8;
  label_cfg.measure.runs = 1;
  label_cfg.measure.warmup = 1;
  const auto trained =
      classify::train_from_pool(pool, features::onnz_feature_set(), {}, label_cfg);
  pool.clear();

  const auto g = static_cast<index_t>(52.0 * std::cbrt(scale));
  run_case({"CG / poisson3d", gen::stencil_3d_7pt(g, g, g), true},
           trained.classifier, cfg);
  run_case({"BiCGSTAB / nonsymmetric random",
            gen::make_diagonally_dominant(
                gen::random_uniform(static_cast<index_t>(120000 * scale), 7, 5),
                2.0),
            false},
           trained.classifier, cfg);
  return 0;
}
