// The persistent execution engine (src/engine/) and its topology probe.
//
// Correctness story: an engine-bound OptimizedSpmv must agree with the ULP
// oracle for every enumerated plan at every team size — the same bar the
// differential runner holds the composed kernels to.  Placement story: the
// sysfs probe must parse real trees, reject junk, and fall back to the
// single-node topology whenever sysfs is absent (containers, non-Linux).
#include <gtest/gtest.h>

#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "robust/fault_inject.hpp"
#include "spmvopt/spmvopt.hpp"

namespace spmvopt {
namespace {

using engine::EngineConfig;
using engine::ExecutionEngine;

// ---------------------------------------------------------------- topology

TEST(Topology, ParseCpulist) {
  const auto one = parse_cpulist("0");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(*one, (std::vector<int>{0}));

  const auto mixed = parse_cpulist("0-3,8,10-11");
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(*mixed, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));

  // Overlaps dedupe, order normalizes.
  const auto overlap = parse_cpulist("4-6,5,2");
  ASSERT_TRUE(overlap.has_value());
  EXPECT_EQ(*overlap, (std::vector<int>{2, 4, 5, 6}));

  EXPECT_FALSE(parse_cpulist("").has_value());
  EXPECT_FALSE(parse_cpulist("a-b").has_value());
  EXPECT_FALSE(parse_cpulist("3-1").has_value());   // descending range
  EXPECT_FALSE(parse_cpulist("1,,2").has_value());
  EXPECT_FALSE(parse_cpulist("1,").has_value());    // trailing comma
  EXPECT_FALSE(parse_cpulist("0-70000").has_value());  // implausible width
}

TEST(Topology, AbsentSysfsFallsBackToSingleNode) {
  const Topology t = probe_topology("/nonexistent/sysfs/root");
  EXPECT_FALSE(t.from_sysfs);
  ASSERT_EQ(t.num_nodes(), 1);
  EXPECT_GE(t.logical_cpus, 1);
  EXPECT_EQ(static_cast<int>(t.nodes[0].cpus.size()), t.logical_cpus);
}

/// A fake two-node sysfs tree under a temp dir.
class FakeSysfs {
 public:
  FakeSysfs() {
    root_ = std::filesystem::temp_directory_path() /
            ("spmvopt_topo_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  ~FakeSysfs() { std::filesystem::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) const {
    const auto path = root_ / rel;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << content << "\n";
  }
  [[nodiscard]] std::string path() const { return root_.string(); }

 private:
  std::filesystem::path root_;
};

TEST(Topology, ProbesFakeTwoNodeTree) {
  FakeSysfs fs;
  fs.write("devices/system/node/online", "0-1");
  fs.write("devices/system/node/node0/cpulist", "0-3");
  fs.write("devices/system/node/node1/cpulist", "4-7");
  const Topology t = probe_topology(fs.path());
  EXPECT_TRUE(t.from_sysfs);
  ASSERT_EQ(t.num_nodes(), 2);
  EXPECT_EQ(t.logical_cpus, 8);
  EXPECT_EQ(t.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(t.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
}

TEST(Topology, MemoryOnlyNodeIsSkippedNotFatal) {
  FakeSysfs fs;
  fs.write("devices/system/node/online", "0,2");
  fs.write("devices/system/node/node0/cpulist", "0-1");
  fs.write("devices/system/node/node2/cpulist", "");  // CXL-style, no CPUs
  const Topology t = probe_topology(fs.path());
  // The empty cpulist line parses as junk -> full fallback is also
  // acceptable; what must NOT happen is a node with zero CPUs.
  for (const NumaNode& n : t.nodes) EXPECT_FALSE(n.cpus.empty());
  EXPECT_GE(t.logical_cpus, 1);
}

TEST(Topology, MalformedOnlineFileFallsBack) {
  FakeSysfs fs;
  fs.write("devices/system/node/online", "garbage");
  const Topology t = probe_topology(fs.path());
  EXPECT_FALSE(t.from_sysfs);
  ASSERT_GE(t.num_nodes(), 1);
}

TEST(Topology, PinPolicyNamesRoundTrip) {
  for (PinPolicy p :
       {PinPolicy::None, PinPolicy::Compact, PinPolicy::Scatter}) {
    const auto back = parse_pin_policy(pin_policy_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(parse_pin_policy("spread").has_value());
}

TEST(Topology, PinCpusCompactAndScatter) {
  Topology t;
  t.nodes = {{0, {0, 1, 2, 3}}, {1, {4, 5, 6, 7}}};
  t.logical_cpus = 8;

  EXPECT_TRUE(pin_cpus(t, PinPolicy::None, 4).empty());

  // Compact fills node 0 before touching node 1.
  EXPECT_EQ(pin_cpus(t, PinPolicy::Compact, 6),
            (std::vector<int>{0, 1, 2, 3, 4, 5}));
  // Scatter alternates nodes.
  EXPECT_EQ(pin_cpus(t, PinPolicy::Scatter, 6),
            (std::vector<int>{0, 4, 1, 5, 2, 6}));
  // Oversubscription wraps instead of failing.
  EXPECT_EQ(pin_cpus(t, PinPolicy::Compact, 10).size(), 10u);
  EXPECT_EQ(pin_cpus(t, PinPolicy::Compact, 10)[8], 0);
}

// ------------------------------------------------------------------ engine

TEST(Engine, EveryMemberRunsEveryDispatch) {
  ExecutionEngine eng({.nthreads = 4, .pin = PinPolicy::None});
  EXPECT_EQ(eng.nthreads(), 4);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 100; ++round)
    eng.parallel([&hits](int tid, int nt) {
      ASSERT_EQ(nt, 4);
      hits[static_cast<std::size_t>(tid)].fetch_add(1);
    });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 100);
  EXPECT_EQ(eng.dispatch_count(), 100u);
}

TEST(Engine, SingleThreadDegeneratesToDirectCall) {
  ExecutionEngine eng({.nthreads = 1, .pin = PinPolicy::None});
  int calls = 0;
  eng.parallel([&calls](int tid, int nt) {
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(nt, 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Engine, TeamBarrierOrdersPhases) {
  ExecutionEngine eng({.nthreads = 3, .pin = PinPolicy::None});
  std::vector<int> phase1(3, 0);
  std::atomic<int> phase2_sum{0};
  eng.parallel([&](int tid, int) {
    phase1[static_cast<std::size_t>(tid)] = tid + 1;
    eng.team_barrier();
    // After the barrier every member sees every phase-1 write.
    int s = 0;
    for (int v : phase1) s += v;
    phase2_sum.fetch_add(s);
    eng.team_barrier();
  });
  EXPECT_EQ(phase2_sum.load(), 3 * (1 + 2 + 3));
}

TEST(Engine, CompactPinningPinsWholeTeamOnLinux) {
  ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::Compact});
#if defined(__linux__)
  // In any environment with at least one schedulable CPU the pin either
  // succeeds for the whole team or is reported empty (restricted cgroup).
  if (!eng.pinned_cpus().empty()) {
    EXPECT_EQ(eng.pinned_cpus().size(), 2u);
  }
#else
  EXPECT_TRUE(eng.pinned_cpus().empty());
#endif
}

TEST(Engine, DestructionRestoresTheCallersAffinity) {
#if defined(__linux__)
  // pin_main pins this thread to one CPU; once the engine is gone the thread
  // must get its old mask back, or every later thread and OpenMP team it
  // starts stays crowded onto that CPU.
  cpu_set_t before, during, after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  {
    ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::Compact, .pin_main = true});
    if (eng.pinned_cpus().empty()) GTEST_SKIP() << "the host refused pinning";
    ASSERT_EQ(sched_getaffinity(0, sizeof(during), &during), 0);
    EXPECT_EQ(CPU_COUNT(&during), 1);
    ASSERT_TRUE(eng.recycle());  // a re-pin must not replace the saved mask
  }
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
#else
  GTEST_SKIP() << "affinity is Linux-only";
#endif
}

TEST(Engine, DestructionInConstructionOrderRestoresTheCallersAffinity) {
#if defined(__linux__)
  // Engines kept in a vector go front to back: the thread stays pinned while
  // either lives and gets its old mask back only after the second goes.
  cpu_set_t before, between, after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  std::vector<std::unique_ptr<ExecutionEngine>> engines;
  for (const PinPolicy pin : {PinPolicy::Compact, PinPolicy::Scatter})
    engines.push_back(std::make_unique<ExecutionEngine>(
        EngineConfig{.nthreads = 2, .pin = pin, .pin_main = true}));
  if (engines[0]->pinned_cpus().empty() || engines[1]->pinned_cpus().empty())
    GTEST_SKIP() << "the host refused pinning";
  engines.erase(engines.begin());
  ASSERT_EQ(sched_getaffinity(0, sizeof(between), &between), 0);
  EXPECT_EQ(CPU_COUNT(&between), 1);
  engines.clear();
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
#else
  GTEST_SKIP() << "affinity is Linux-only";
#endif
}

TEST(Engine, TouchedVectorIsZeroFilled) {
  ExecutionEngine eng({.nthreads = 3, .pin = PinPolicy::None});
  const auto v = eng.touched_vector(1000);
  ASSERT_EQ(v.size(), 1000u);
  for (value_t e : v) EXPECT_EQ(e, 0.0);
}

TEST(Engine, TouchedVectorWithPartitionCoversAllRows) {
  const CsrMatrix a = gen::stencil_2d_5pt(40, 40);
  ExecutionEngine eng({.nthreads = 3, .pin = PinPolicy::None});
  const auto spmv = optimize::OptimizedSpmv::create(a, {}, eng);
  const auto y = eng.touched_vector(a.nrows(), spmv.partition());
  ASSERT_EQ(static_cast<index_t>(y.size()), a.nrows());
  for (value_t e : y) EXPECT_EQ(e, 0.0);
}

// -------------------------------------------- engine-bound OptimizedSpmv

void expect_oracle_pass(const CsrMatrix& a, const optimize::OptimizedSpmv& s,
                        const std::vector<value_t>& x) {
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows()), -1.0);
  s.run(x.data(), y.data());
  // Plans carry a value mode now: judge each against the oracle that rounds
  // inputs the way the plan's kernel does (DESIGN.md §13).
  const auto oracle = verify::kahan_reference(a, x, s.precision());
  const auto report =
      verify::compare(oracle, y, verify::policy_for(s.precision()));
  EXPECT_TRUE(report.pass()) << report.to_string();
}

TEST(Engine, EveryPlanMatchesOracleAcrossTeamSizes) {
  for (const auto& entry : gen::test_suite()) {
    SCOPED_TRACE(entry.name);
    const CsrMatrix a = entry.make();
    const std::vector<value_t> x = gen::test_vector(a.ncols());
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExecutionEngine eng({.nthreads = threads, .pin = PinPolicy::None});
      for (const auto& plan : optimize::enumerate_plans(a)) {
        SCOPED_TRACE(plan.to_string());
        expect_oracle_pass(a, optimize::OptimizedSpmv::create(a, plan, eng),
                           x);
      }
    }
  }
}

TEST(Engine, OneTeamServesTwoMatricesBackToBack) {
  ExecutionEngine eng({.nthreads = 3, .pin = PinPolicy::None});
  const CsrMatrix a = gen::stencil_3d_7pt(12, 12, 12);
  const CsrMatrix b = gen::random_uniform(2000, 9, 7);
  const auto sa = optimize::OptimizedSpmv::create(a, {}, eng);
  const auto sb = optimize::OptimizedSpmv::create(b, {}, eng);
  const std::vector<value_t> xa = gen::test_vector(a.ncols());
  const std::vector<value_t> xb = gen::test_vector(b.ncols());
  const auto before = eng.dispatch_count();
  // Interleave: the team context-switches between bound matrices freely.
  for (int round = 0; round < 3; ++round) {
    expect_oracle_pass(a, sa, xa);
    expect_oracle_pass(b, sb, xb);
  }
  EXPECT_EQ(eng.dispatch_count(), before + 6);
}

TEST(Engine, PlacementStatsReportTeamAndBytes) {
  const CsrMatrix a = gen::stencil_3d_7pt(16, 16, 16);
  ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::None});
  const auto spmv = optimize::OptimizedSpmv::create(a, {}, eng);
  const auto p = spmv.placement();
  EXPECT_TRUE(p.engine_bound);
  EXPECT_EQ(p.team_size, 2);
  EXPECT_TRUE(p.numa_materialized);  // plain CSR path re-materializes
  EXPECT_GT(p.materialized_bytes, 0u);
  EXPECT_GE(p.numa_nodes, 1);

  const auto plain = optimize::OptimizedSpmv::create(a, {}, 2);
  EXPECT_FALSE(plain.placement().engine_bound);
}

TEST(Engine, RunManyMatchesPerRhsRuns) {
  const CsrMatrix a = gen::random_uniform(1500, 11, 5);
  ExecutionEngine eng({.nthreads = 3, .pin = PinPolicy::None});
  for (const optimize::Plan& plan :
       {optimize::Plan{}, [] {
          optimize::Plan p;
          p.sched = kernels::Sched::Auto;
          p.split_long_rows = true;
          return p;
        }()}) {
    SCOPED_TRACE(plan.to_string());
    const auto spmv = optimize::OptimizedSpmv::create(a, plan, eng);
    constexpr int kRhs = 4;
    const std::size_t n = static_cast<std::size_t>(a.ncols());
    const std::size_t m = static_cast<std::size_t>(a.nrows());
    std::vector<value_t> X(n * kRhs), Y(m * kRhs, -1.0);
    for (std::size_t i = 0; i < X.size(); ++i)
      X[i] = 0.125 * static_cast<value_t>((i * 2654435761u) % 97) - 6.0;
    spmv.run_many(X.data(), Y.data(), kRhs);
    for (int r = 0; r < kRhs; ++r) {
      SCOPED_TRACE("rhs=" + std::to_string(r));
      const auto report = verify::check_spmv(
          a, std::span<const value_t>(X.data() + n * r, n),
          std::span<const value_t>(Y.data() + m * r, m));
      EXPECT_TRUE(report.pass()) << report.to_string();
    }
  }
}

TEST(Engine, RecycleRespawnsTheTeamAndKeepsAnswersCorrect) {
  // The server's self-healing escalation: a recycle joins the old worker
  // team and spawns (and re-pins) a fresh one.  Dispatches before and after
  // must both match the oracle — a recycle is invisible to correctness.
  const CsrMatrix a = gen::random_uniform(300, 8, 3);
  ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::None});
  const auto spmv = optimize::OptimizedSpmv::create(a, {}, eng);
  const auto x = gen::test_vector(a.ncols());
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows()));
  spmv.run(x.data(), y.data());
  EXPECT_TRUE(verify::check_spmv(a, x, y).pass());

  const auto before = eng.dispatch_count();
  ASSERT_TRUE(eng.recycle());
  EXPECT_EQ(eng.recycle_count(), 1u);
  EXPECT_EQ(eng.nthreads(), 2);

  std::fill(y.begin(), y.end(), -1.0);
  spmv.run(x.data(), y.data());
  EXPECT_TRUE(verify::check_spmv(a, x, y).pass());
  EXPECT_GT(eng.dispatch_count(), before);
}

TEST(Engine, VetoedRecycleKeepsTheOldTeamServing) {
  if (!robust::fault_injection_enabled())
    GTEST_SKIP() << "built without SPMVOPT_FAULT_INJECTION";
  const CsrMatrix a = gen::random_uniform(300, 8, 5);
  ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::None});
  const auto spmv = optimize::OptimizedSpmv::create(a, {}, eng);

  robust::fault_arm("engine.team_respawn");
  EXPECT_FALSE(eng.recycle());
  robust::fault_disarm_all();
  EXPECT_EQ(eng.recycle_count(), 0u);

  // The veto fired before teardown: the previous team keeps serving.
  const auto x = gen::test_vector(a.ncols());
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows()));
  spmv.run(x.data(), y.data());
  EXPECT_TRUE(verify::check_spmv(a, x, y).pass());
}

TEST(Engine, CgRoutesThroughEngineAndConverges) {
  const CsrMatrix a = gen::stencil_2d_5pt(24, 24);  // SPD Poisson
  ExecutionEngine eng({.nthreads = 2, .pin = PinPolicy::None});
  const auto spmv = optimize::OptimizedSpmv::create(a, {}, eng);
  const auto op = solvers::LinearOperator::from_optimized(spmv);

  std::vector<value_t> b(static_cast<std::size_t>(a.nrows()), 1.0);
  std::vector<value_t> x(b.size(), 0.0);
  const auto before = eng.dispatch_count();
  const auto res = solvers::cg(op, b, x, {.max_iterations = 500});
  EXPECT_TRUE(res.converged);
  // Every CG matvec is one engine dispatch (plus the initial residual).
  EXPECT_GE(eng.dispatch_count() - before,
            static_cast<std::uint64_t>(res.iterations));

  // Same system solved without the engine agrees.
  std::vector<value_t> x_ref(b.size(), 0.0);
  const auto ref = solvers::cg(solvers::LinearOperator::from_csr(a), b, x_ref,
                               {.max_iterations = 500});
  ASSERT_TRUE(ref.converged);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_ref[i], 1e-6 * std::max(1.0, std::abs(x_ref[i])));
}

}  // namespace
}  // namespace spmvopt
